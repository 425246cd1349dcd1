type counters = { lookups : int; hits : int; misses : int }

let hit_rate c =
  if c.lookups = 0 then 0.0
  else float_of_int c.hits /. float_of_int c.lookups

(* Mutable counter cell; snapshots are taken under the cache mutex. *)
type cell = { mutable c_lookups : int; mutable c_hits : int }

let snapshot cell =
  { lookups = cell.c_lookups;
    hits = cell.c_hits;
    misses = cell.c_lookups - cell.c_hits }

(* Mask pairs are compared structurally; the polymorphic hash only
   samples a prefix of long arrays, which is fine — equality does the
   full comparison and the tables stay small (one entry per distinct
   subformula pair of the batch). *)
type t = {
  lock : Mutex.t;
  reduced_tbl : (bool array * bool array, Reduced.t) Hashtbl.t;
  reduction_tbl : (bool array * bool array, Reduction.t) Hashtbl.t;
  until_tbl : (bool array * bool array * float * float, Linalg.Vec.t) Hashtbl.t;
  reduced_cell : cell;
  reduction_cell : cell;
  until_cell : cell;
}

let create () =
  { lock = Mutex.create ();
    reduced_tbl = Hashtbl.create 16;
    reduction_tbl = Hashtbl.create 16;
    until_tbl = Hashtbl.create 16;
    reduced_cell = { c_lookups = 0; c_hits = 0 };
    reduction_cell = { c_lookups = 0; c_hits = 0 };
    until_cell = { c_lookups = 0; c_hits = 0 } }

(* Shared lookup-or-compute skeleton.  The computation runs outside the
   lock: a concurrent miss on the same key recomputes the same
   deterministic value, and the duplicate store is harmless. *)
let memoize t cell tbl key compute =
  Mutex.lock t.lock;
  cell.c_lookups <- cell.c_lookups + 1;
  match Hashtbl.find_opt tbl key with
  | Some v ->
    cell.c_hits <- cell.c_hits + 1;
    Mutex.unlock t.lock;
    v
  | None ->
    Mutex.unlock t.lock;
    let v = compute () in
    Mutex.lock t.lock;
    Hashtbl.replace tbl key v;
    Mutex.unlock t.lock;
    v

let reduced t m ~phi ~psi =
  (* Copy the keys: callers recycle mask arrays, and a key mutated after
     insertion would corrupt the table. *)
  memoize t t.reduced_cell t.reduced_tbl (Array.copy phi, Array.copy psi)
    (fun () -> Reduced.reduce m ~phi ~psi)

let reduction t ?config ?telemetry m ~phi ~psi =
  (* Layered on the reduced-model cache: a reduction miss still reuses
     the cached Theorem 1 transform.  One batch only ever sees one
     pipeline config (it is part of the checker context, not the key). *)
  memoize t t.reduction_cell t.reduction_tbl (Array.copy phi, Array.copy psi)
    (fun () -> Reduction.prepare_on ?config ?telemetry (reduced t m ~phi ~psi))

let until_probabilities t ?config ?telemetry ?pool solve m ~phi ~psi
    ~time_bound ~reward_bound =
  let v =
    memoize t t.until_cell t.until_tbl
      (Array.copy phi, Array.copy psi, time_bound, reward_bound)
      (fun () ->
        let r = reduction t ?config ?telemetry m ~phi ~psi in
        Reduction.until_probabilities_on r ?pool ?telemetry solve ~phi ~psi
          ~time_bound ~reward_bound)
  in
  Linalg.Vec.copy v

let counters t =
  Mutex.lock t.lock;
  let r =
    [ ("reduced", snapshot t.reduced_cell);
      ("reduction", snapshot t.reduction_cell);
      ("until", snapshot t.until_cell) ]
  in
  Mutex.unlock t.lock;
  r
