type span = {
  id : int;
  parent : int option;
  name : string;
  request : int;
  start : float;
  stop : float;
}

type t = {
  clock : unit -> float;
  mutable next : int;
  mutable request : int;
  mutable open_ids : int list;
  mutable closed : span list;
}

let create ~clock =
  { clock; next = 0; request = -1; open_ids = []; closed = [] }

let set_request t request = t.request <- request

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ids with [] -> None | p :: _ -> Some p in
  let request = t.request in
  t.open_ids <- id :: t.open_ids;
  let start = t.clock () in
  let finish () =
    let stop = t.clock () in
    t.open_ids <- List.tl t.open_ids;
    t.closed <- { id; parent; name; request; start; stop } :: t.closed
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

let spans t = List.sort (fun a b -> compare a.id b.id) t.closed

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec sweep acc cur = function
    | [] -> (match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> sweep acc (Some (a, b)) rest
        | Some (ca, cb) ->
          if a <= cb then sweep acc (Some (ca, Float.max cb b)) rest
          else sweep (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  sweep 0.0 None clipped

let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Option.iter
        (fun p -> Hashtbl.add children p (s.start, s.stop))
        s.parent)
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans
