type payload = Session.t =
  | Explicit of {
      config : Session.config;
      mrm : Markov.Mrm.t;
      labeling : Markov.Labeling.t;
      init : Linalg.Vec.t;
      ctx : Checker.t;
      memo : Checker.memo;
    }
  | Symbolic of { config : Session.config; path : string; sym : Perf.Symbolic.t }
  | Robust of {
      config : Session.config;
      imrm : Robust.Imrm.t;
      labeling : Markov.Labeling.t;
      init : Linalg.Vec.t;
      ctx : Checker.t;
      memo : Checker.memo;
    }

type entry = { name : string; payload : payload; entry_lock : Mutex.t }

type t = {
  config : Session.config;
  table : (string, entry) Hashtbl.t;
  lock : Mutex.t;
}

let create config = { config; table = Hashtbl.create 8; lock = Mutex.create () }

let load t ~name ?drift source =
  Session.load ?drift t.config source
  |> Result.map (fun payload ->
         let entry = { name; payload; entry_lock = Mutex.create () } in
         Mutex.protect t.lock (fun () -> Hashtbl.replace t.table name entry);
         entry)

let find t name = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table name)

let exclusively entry f = Mutex.protect entry.entry_lock f

let evict t name =
  Mutex.protect t.lock (fun () ->
      if Hashtbl.mem t.table name then begin
        Hashtbl.remove t.table name;
        true
      end
      else false)

let entries t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun _ e acc -> e :: acc) t.table [])
  |> List.sort (fun a b -> compare a.name b.name)
