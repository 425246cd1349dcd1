type config = {
  engine : Perf.Engine.spec;
  epsilon : float;
  reduction : Perf.Reduction.config;
  pool : Parallel.Pool.t;
  queue_bound : int;
  executors : int;
  default_deadline_ms : float option;
  telemetry : Telemetry.t option;
  clock : unit -> float;
}

let default_config ?(clock = Unix.gettimeofday) () =
  { engine = Perf.Engine.default;
    epsilon = 1e-9;
    reduction = Perf.Reduction.default;
    pool = Parallel.Pool.sequential;
    queue_bound = 64;
    executors = 1;
    default_deadline_ms = None;
    telemetry = None;
    clock }

(* Serving counters, deterministic for a single session at any executor
   count: everything except [overloaded] (reader-side rejections) is
   incremented in admission order relative to [stats] — model-pinned
   requests bump when their shard executes them, and [stats] runs under
   a session barrier that waits for every earlier request first.  No
   timings in here — those live in telemetry. *)
type counters = {
  mutable c_load : int;
  mutable c_evict : int;
  mutable c_list : int;
  mutable c_check : int;
  mutable c_quantile : int;
  mutable c_frontier : int;
  mutable c_stats : int;
  mutable c_shutdown : int;
  mutable c_errors : int;
  mutable c_overloaded : int;
  mutable c_deadline_exceeded : int;
}

type outcome = Shutdown | Eof

(* One serving session: its reorder buffer (responses leave in admission
   order), the in-flight count the dispatcher's barrier waits on, and
   the outcome the session loop reports. *)
type session = {
  reorder : Io.Json.t Reorder.t;
  flight_lock : Mutex.t;
  flight_zero : Condition.t;
  mutable inflight : int;
  mutable outcome : outcome;
}

type admitted =
  | Job of {
      session : session;
      seq : int;
      envelope : (Protocol.envelope, Protocol.error) result;
      admitted : float;
    }
  | End_session of session
  | Stop_dispatch

type runtime = {
  exec : Executor.t;
  admission : admitted Admission.t;
  dispatcher : Thread.t;
}

type t = {
  config : config;
  reg : Registry.t;
  counters : counters;
  counters_lock : Mutex.t;
  runtime_lock : Mutex.t;
  mutable runtime : runtime option;
}

let registry t = t.reg

let preload t names =
  List.fold_left
    (fun acc name ->
      Result.bind acc (fun () ->
          Registry.load t.reg ~name (Session.Builtin name)
          |> Result.map ignore
          |> Result.map_error Session.load_error_message))
    (Ok ()) names

(* ------------------------------------------------------------------ *)
(* Request execution.                                                  *)

let ( let* ) = Result.bind

let bump t request =
  Mutex.protect t.counters_lock (fun () ->
      let c = t.counters in
      match (request : Protocol.request) with
      | Load _ -> c.c_load <- c.c_load + 1
      | Evict _ -> c.c_evict <- c.c_evict + 1
      | List_models -> c.c_list <- c.c_list + 1
      | Check _ -> c.c_check <- c.c_check + 1
      | Quantile _ -> c.c_quantile <- c.c_quantile + 1
      | Frontier _ -> c.c_frontier <- c.c_frontier + 1
      | Stats -> c.c_stats <- c.c_stats + 1
      | Shutdown -> c.c_shutdown <- c.c_shutdown + 1)

let resolve t ?id model =
  match Registry.find t.reg model with
  | Some entry -> Ok entry
  | None ->
    Error
      (Protocol.error ?id ~code:"unknown_model"
         (Printf.sprintf "model %S is not loaded" model))

let parse_query ?id text =
  match Logic.Parser.query text with
  | q -> Ok q
  | exception Logic.Parser.Parse_error (message, pos) ->
    Error
      (Protocol.error ?id ~code:"query_parse_error"
         (Printf.sprintf "parse error at position %d: %s" pos message))

let deadline_token t ~admitted ?id request =
  let budget =
    match (request : Protocol.request) with
    | Check { deadline_ms; _ } | Quantile { deadline_ms; _ }
    | Frontier { deadline_ms; _ } -> begin
        match deadline_ms with
        | Some _ as b -> b
        | None -> t.config.default_deadline_ms
      end
    | _ -> None
  in
  match budget with
  | None -> Ok None
  | Some ms ->
    let deadline = admitted +. (ms /. 1000.0) in
    if t.config.clock () >= deadline then
      Error
        (Protocol.error ?id ~code:"deadline_exceeded"
           (Printf.sprintf "deadline of %g ms expired in the queue" ms))
    else Ok (Some (Numerics.Cancel.of_deadline ~clock:t.config.clock deadline))

(* Resolve the model, parse the query, arm the deadline, and run the
   session operation under the entry's lock: the shared path of check,
   quantile and frontier requests. *)
let solve t ~admitted ?id ~model ~query request run =
  let* entry = resolve t ?id model in
  let* q = parse_query ?id query in
  let* cancel = deadline_token t ~admitted ?id request in
  Registry.exclusively entry (fun () -> run ?cancel entry.Registry.payload q)
  |> Result.map (fun answer -> (q, answer))
  |> Result.map_error (fun (r : Session.refusal) ->
         Protocol.error ?id ~code:r.Session.code r.Session.message)

let stats_json t =
  let c = t.counters in
  let requests, errors, overloaded, deadline_exceeded =
    Mutex.protect t.counters_lock (fun () ->
        let total =
          c.c_load + c.c_evict + c.c_list + c.c_check + c.c_quantile
          + c.c_frontier + c.c_stats + c.c_shutdown
        in
        ( [ ("check", c.c_check); ("evict", c.c_evict);
            ("frontier", c.c_frontier); ("list", c.c_list);
            ("load", c.c_load); ("quantile", c.c_quantile);
            ("shutdown", c.c_shutdown); ("stats", c.c_stats);
            ("total", total) ],
          c.c_errors, c.c_overloaded, c.c_deadline_exceeded ))
  in
  let int_field (name, v) = (name, Io.Json.Number (float_of_int v)) in
  let models =
    List.map
      (fun (e : Registry.entry) ->
        Io.Json.Object
          [ ("name", Io.Json.String e.Registry.name);
            int_field ("states", Session.n_states e.Registry.payload);
            ("cache", Session.cache_json e.Registry.payload) ])
      (Registry.entries t.reg)
  in
  [ ("requests", Io.Json.Object (List.map int_field requests));
    int_field ("errors", errors);
    int_field ("overloaded", overloaded);
    int_field ("deadline_exceeded", deadline_exceeded);
    ("models", Io.Json.List models);
    ("fox_glynn", Session.counter_json (Session.fox_glynn_counters ())) ]

let run_request t ~admitted ~id request =
  let ok = Protocol.response_ok ~id in
  let model_field model = ("model", Io.Json.String model) in
  let query_field q =
    ("query", Io.Json.String (Format.asprintf "%a" Logic.Ast.pp_query q))
  in
  match (request : Protocol.request) with
  | Load { model; file; builtin; drift; imrm } -> begin
      let source =
        match imrm, file with
        | Some path, _ -> Session.Imrm path
        | None, Some path -> Session.File path
        | None, None -> Session.Builtin (Option.value builtin ~default:model)
      in
      match Registry.load t.reg ~name:model ?drift source with
      | Ok entry ->
        Ok
          (ok ~kind:"load"
             (model_field model :: Session.summary_json entry.Registry.payload))
      | Error e ->
        let code =
          match e with
          | Session.Unknown_model _ -> "unknown_model"
          | Session.Load_error _ -> "load_error"
        in
        Error (Protocol.error ?id ~code (Session.load_error_message e))
    end
  | Evict { model } ->
    if Registry.evict t.reg model then
      Ok (ok ~kind:"evict" [ model_field model ])
    else
      Error
        (Protocol.error ?id ~code:"unknown_model"
           (Printf.sprintf "model %S is not loaded" model))
  | List_models ->
    let models =
      List.map
        (fun (e : Registry.entry) ->
          Io.Json.Object
            [ ("name", Io.Json.String e.Registry.name);
              ("states",
               Io.Json.Number
                 (float_of_int (Session.n_states e.Registry.payload))) ])
        (Registry.entries t.reg)
    in
    Ok (ok ~kind:"list" [ ("models", Io.Json.List models) ])
  | Check { model; query; _ } ->
    let* q, answer =
      solve t ~admitted ?id ~model ~query request (fun ?cancel s q ->
          Session.check ?cancel s q)
    in
    Ok
      (ok ~kind:"check"
         [ model_field model; query_field q;
           ("result", Io.Json.Object (Session.to_json answer)) ])
  | Quantile { model; query; variable; target; hi; tolerance; _ } ->
    let axis, name =
      match variable with
      | Protocol.Time -> (`Time, "t")
      | Protocol.Reward -> (`Reward, "r")
    in
    let* _, answer =
      solve t ~admitted ?id ~model ~query request (fun ?cancel s q ->
          Session.quantile ?cancel s ~variable:axis ~target ~hi ~tolerance q)
    in
    Ok
      (ok ~kind:"quantile"
         ([ model_field model;
            ("variable", Io.Json.String name);
            ("target", Io.Json.Number target);
            ("hi", Io.Json.Number hi);
            ("tolerance", Io.Json.Number tolerance) ]
         @ Session.fields answer))
  | Frontier { model; query; tolerance; _ } ->
    (* Every probe is an ordinary solve with the entry's memo, so the
       sweep shares the model's warm caches with check/quantile traffic
       and each point stays bit-identical to a cold check. *)
    let* q, answer =
      solve t ~admitted ?id ~model ~query request (fun ?cancel s q ->
          Session.frontier ?cancel ~tolerance s q)
    in
    Ok
      (ok ~kind:"frontier"
         (model_field model :: query_field q
         :: Session.fields ~evaluations_last:true answer))
  | Stats -> Ok (ok ~kind:"stats" (stats_json t))
  | Shutdown -> Ok (ok ~kind:"shutdown" [])

let count_error t (e : Protocol.error) =
  Mutex.protect t.counters_lock (fun () ->
      t.counters.c_errors <- t.counters.c_errors + 1;
      if e.Protocol.code = "deadline_exceeded" then
        t.counters.c_deadline_exceeded <- t.counters.c_deadline_exceeded + 1)

let execute t ?admitted ({ id; request } : Protocol.envelope) =
  let admitted =
    match admitted with Some a -> a | None -> t.config.clock ()
  in
  bump t request;
  Telemetry.add t.config.telemetry "server.requests" 1;
  Telemetry.with_span t.config.telemetry
    ("server." ^ Protocol.kind_of request)
  @@ fun () ->
  Telemetry.record t.config.telemetry "server.queue_wait_seconds"
    (t.config.clock () -. admitted);
  match run_request t ~admitted ~id request with
  | Ok response -> response
  | Error e ->
    count_error t e;
    Telemetry.add t.config.telemetry "server.error_responses" 1;
    Protocol.response_error e

(* ------------------------------------------------------------------ *)
(* The multi-executor runtime: a service-wide dispatcher thread routes
   admitted jobs to N executor domains, sharded by model name; sessions
   contribute reader threads and drain their reorder buffers.           *)

(* FNV-1a (64-bit) over the model name.  [Hashtbl.hash] is seeded per
   process on some configurations and its value is unspecified across
   compiler versions, so it cannot pin model->shard assignments in docs,
   tests, or multi-process deployments; FNV-1a is stable by
   construction. *)
let fnv1a64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

let shard_of_name ~executors name =
  if executors < 1 then invalid_arg "shard_of_name: executors must be >= 1";
  Int64.to_int (Int64.unsigned_rem (fnv1a64 name) (Int64.of_int executors))

let shard_of t request =
  match Protocol.model_of request with
  | Some model -> Some (shard_of_name ~executors:t.config.executors model)
  | None -> None

(* An exception that escapes [execute] (it guards all per-request
   failures, so this is a bug path) must still submit a response: a
   sequence-number gap would wedge the session's writer. *)
let execute_total t ~admitted ({ Protocol.id; _ } as env) =
  match execute t ~admitted env with
  | response -> response
  | exception exn ->
    let e =
      Protocol.error ?id ~code:"internal"
        (Printf.sprintf "unexpected exception: %s" (Printexc.to_string exn))
    in
    count_error t e;
    Protocol.response_error e

let flight_incr session =
  Mutex.protect session.flight_lock (fun () ->
      session.inflight <- session.inflight + 1)

let flight_decr session =
  Mutex.protect session.flight_lock (fun () ->
      session.inflight <- session.inflight - 1;
      if session.inflight = 0 then Condition.broadcast session.flight_zero)

(* Wait until every job of [session] dispatched so far has submitted its
   response.  Global requests run behind this barrier: [stats]/[list]
   then observe exactly the session's admission-order prefix, and
   [shutdown]'s acknowledgement really means "everything before me is
   answered". *)
let flight_barrier session =
  Mutex.protect session.flight_lock (fun () ->
      while session.inflight > 0 do
        Condition.wait session.flight_zero session.flight_lock
      done)

let dispatch_loop t ~exec ~admission () =
  let rec loop () =
    match Admission.pop admission with
    | Stop_dispatch -> ()
    | End_session session ->
      flight_barrier session;
      Reorder.close session.reorder;
      loop ()
    | Job { session; seq; envelope; admitted } ->
      (match envelope with
       | Error e ->
         (* Pre-failed (parse/bad-request) jobs are answered by the
            dispatcher itself, in admission order relative to any later
            barrier request. *)
         count_error t e;
         Reorder.submit session.reorder ~seq (Protocol.response_error e)
       | Ok env -> begin
           match shard_of t env.Protocol.request with
           | Some shard ->
             flight_incr session;
             Executor.submit exec ~shard (fun () ->
                 let response = execute_total t ~admitted env in
                 Reorder.submit session.reorder ~seq response;
                 flight_decr session)
           | None ->
             flight_barrier session;
             let response = execute_total t ~admitted env in
             (match env.Protocol.request with
              | Protocol.Shutdown ->
                Mutex.protect session.flight_lock (fun () ->
                    session.outcome <- Shutdown)
              | _ -> ());
             Reorder.submit session.reorder ~seq response
         end);
      loop ()
  in
  loop ()

let runtime t =
  Mutex.protect t.runtime_lock (fun () ->
      match t.runtime with
      | Some r -> r
      | None ->
        let exec =
          Executor.create ~shards:t.config.executors
            ~queue_bound:t.config.queue_bound
        in
        let admission = Admission.create ~bound:t.config.queue_bound in
        let r =
          { exec; admission;
            dispatcher = Thread.create (dispatch_loop t ~exec ~admission) () }
        in
        t.runtime <- Some r;
        r)

let stop t =
  let r = Mutex.protect t.runtime_lock (fun () ->
      let r = t.runtime in
      t.runtime <- None;
      r)
  in
  match r with
  | None -> ()
  | Some r ->
    Admission.push_control r.admission Stop_dispatch;
    Thread.join r.dispatcher;
    Executor.stop r.exec

let create config =
  if config.executors < 1 then
    invalid_arg "Service.create: executors must be >= 1";
  { config;
    reg =
      Registry.create
        { Session.engine = config.engine;
          epsilon = config.epsilon;
          reduction = config.reduction;
          pool = config.pool;
          telemetry = config.telemetry };
    counters =
      { c_load = 0; c_evict = 0; c_list = 0; c_check = 0; c_quantile = 0;
        c_frontier = 0; c_stats = 0; c_shutdown = 0; c_errors = 0;
        c_overloaded = 0; c_deadline_exceeded = 0 };
    counters_lock = Mutex.create ();
    runtime_lock = Mutex.create ();
    runtime = None }

(* ------------------------------------------------------------------ *)
(* Sessions: reader thread -> shared admission queue -> dispatcher ->
   executor shards -> reorder buffer -> writer thread.                 *)

let serve_channels t ~input ~output =
  let rt = runtime t in
  let out_lock = Mutex.create () in
  let write_json json =
    (* A vanished client (EPIPE) must not kill the session: keep
       draining so the reader reaches EOF and the state stays clean. *)
    try
      Mutex.protect out_lock (fun () ->
          output_string output (Io.Json.to_string json);
          output_char output '\n';
          flush output)
    with Sys_error _ -> ()
  in
  let session =
    { reorder = Reorder.create ~bound:t.config.queue_bound ();
      flight_lock = Mutex.create ();
      flight_zero = Condition.create ();
      inflight = 0;
      outcome = Eof }
  in
  let next_seq = ref 0 in
  let reader () =
    let shutdown_seen = ref false in
    let rec loop () =
      match input_line input with
      | exception End_of_file ->
        Admission.push_control rt.admission (End_session session)
      | exception Sys_error _ ->
        Admission.push_control rt.admission (End_session session)
      | line ->
        if String.trim line = "" then loop ()
        else begin
          let parsed = Protocol.of_line line in
          let envelope =
            if !shutdown_seen then begin
              let id =
                match parsed with
                | Ok env -> env.Protocol.id
                | Error e -> e.Protocol.error_id
              in
              Error
                (Protocol.error ?id ~code:"shutting_down"
                   "the server is draining and stops accepting requests")
            end
            else begin
              (match parsed with
               | Ok { Protocol.request = Protocol.Shutdown; _ } ->
                 shutdown_seen := true
               | _ -> ());
              parsed
            end
          in
          let job =
            Job { session; seq = !next_seq; envelope;
                  admitted = t.config.clock () }
          in
          if Admission.try_push rt.admission job then incr next_seq
          else begin
            Mutex.protect t.counters_lock (fun () ->
                t.counters.c_overloaded <- t.counters.c_overloaded + 1);
            Telemetry.add t.config.telemetry "server.overloaded" 1;
            let id =
              match envelope with
              | Ok env -> env.Protocol.id
              | Error e -> e.Protocol.error_id
            in
            write_json
              (Protocol.response_error
                 (Protocol.error ?id ~code:"overloaded"
                    (Printf.sprintf
                       "admission queue full (%d requests pending)"
                       t.config.queue_bound)))
          end;
          loop ()
        end
    in
    loop ()
  in
  let writer () =
    let rec drain () =
      match Reorder.next_ready session.reorder with
      | Some json ->
        write_json json;
        drain ()
      | None -> ()
    in
    drain ()
  in
  let reader_thread = Thread.create reader () in
  let writer_thread = Thread.create writer () in
  Thread.join reader_thread;
  Thread.join writer_thread;
  Mutex.protect session.flight_lock (fun () -> session.outcome)

let serve_stdio t = serve_channels t ~input:stdin ~output:stdout

(* ------------------------------------------------------------------ *)
(* Listeners: Unix-domain and TCP accept loops over one shared session
   machinery.  Connections are served concurrently, each with its own
   reader/writer; the executor pool and registry are service-global.   *)

type listener = {
  lfd : Unix.file_descr;
  cleanup : unit -> unit;
}

let unix_listener ~path =
  match
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  with
  | fd ->
    Ok
      { lfd = fd;
        cleanup =
          (fun () -> try Unix.unlink path with Unix.Unix_error _ -> ()) }
  | exception Unix.Unix_error (err, _, _) ->
    Error
      (Printf.sprintf "cannot bind %s: %s" path (Unix.error_message err))

let tcp_listener ~host ~port =
  match
    let addr =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found | Invalid_argument _ ->
          failwith (Printf.sprintf "cannot resolve host %S" host))
    in
    let fd = Unix.socket (Unix.domain_of_sockaddr (Unix.ADDR_INET (addr, 0)))
        Unix.SOCK_STREAM 0
    in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (addr, port));
    Unix.listen fd 64;
    let bound =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    (fd, bound)
  with
  | fd, bound -> Ok ({ lfd = fd; cleanup = (fun () -> ()) }, bound)
  | exception Unix.Unix_error (err, _, _) ->
    Error
      (Printf.sprintf "cannot bind %s:%d: %s" host port
         (Unix.error_message err))
  | exception Failure message -> Error message

let serve_listeners t listeners =
  ignore (runtime t);
  let stopping = Atomic.make false in
  let sessions_lock = Mutex.create () in
  let sessions = ref [] in
  let handle client =
    let thread =
      Thread.create
        (fun () ->
          let input = Unix.in_channel_of_descr client
          and output = Unix.out_channel_of_descr client in
          let outcome = serve_channels t ~input ~output in
          (* The channels share one descriptor: close the out side
             (flushes), ignore the in side's redundant close. *)
          close_out_noerr output;
          close_in_noerr input;
          match outcome with
          | Shutdown -> Atomic.set stopping true
          | Eof -> ())
        ()
    in
    Mutex.protect sessions_lock (fun () -> sessions := thread :: !sessions)
  in
  (* Accept via a polling select so a shutdown served on one connection
     stops every accept loop promptly — closing a descriptor another
     thread is blocked in accept(2) on is not portable. *)
  let accept_loop l () =
    let rec loop () =
      if not (Atomic.get stopping) then begin
        match Unix.select [ l.lfd ] [] [] 0.1 with
        | [], _, _ -> loop ()
        | _ -> begin
            match Unix.accept l.lfd with
            | client, _ ->
              handle client;
              loop ()
            | exception Unix.Unix_error _ ->
              if Atomic.get stopping then () else loop ()
          end
        | exception Unix.Unix_error _ ->
          if Atomic.get stopping then () else loop ()
      end
    in
    loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun l ->
          (try Unix.close l.lfd with Unix.Unix_error _ -> ());
          l.cleanup ())
        listeners)
    (fun () ->
      let acceptors = List.map (fun l -> Thread.create (accept_loop l) ()) listeners in
      List.iter Thread.join acceptors;
      (* Drain active sessions before returning so the registry is quiet
         when the caller stops the service. *)
      let rec join_all () =
        let pending =
          Mutex.protect sessions_lock (fun () ->
              let p = !sessions in
              sessions := [];
              p)
        in
        match pending with
        | [] -> ()
        | threads ->
          List.iter Thread.join threads;
          join_all ()
      in
      join_all ())

let serve_socket t ~path =
  match unix_listener ~path with
  | Ok l -> serve_listeners t [ l ]
  | Error message -> failwith message
