type kind = P3_cold | Serve_warm | Symbolic_robust

let kinds =
  [ ("p3-cold", P3_cold); ("serve-warm", Serve_warm);
    ("symbolic-robust", Symbolic_robust) ]

type family =
  | Load
  | Adhoc_p3
  | Mp_p3
  | Grid
  | Drift
  | Quantile
  | Frontier
  | List
  | Stats

type request = {
  family : family;
  model : string option;
  line : string;
}

type plan = {
  kind : kind;
  executors : int;
  setup : request list;
  blocks : int;
  measured : request array;
  pinned : (string * float) list;
}

(* Sized so that a run sends about as many requests as the server
   answers in its run length on a 2-vCPU x86-64 host. *)
let nominal_rps = function
  | P3_cold -> 15
  | Serve_warm -> 6500
  | Symbolic_robust -> 80

(* Bounds are printed with six decimals: continuous draws stay distinct,
   fixed warm-up bounds read as integers. *)
let num x =
  if Float.is_integer x then Printf.sprintf "%.0f" x else Printf.sprintf "%.6f" x

let q3 ~t ~r =
  Printf.sprintf "P=? ( (call_idle | doze) U[t<=%s][r<=%s] call_initiated )"
    (num t) (num r)

let mp ~t ~r = Printf.sprintf "P=? ( up U[t<=%s][r<=%s] down )" (num t) (num r)
let grid ~t = Printf.sprintf "P=? ( true U[t<=%s] frontier )" (num t)
let grid_file = "examples/grid.gcm"

let wire request =
  Io.Json.to_string
    (Server.Protocol.to_json { Server.Protocol.id = None; request })

let load ?builtin ?file ?drift model =
  { family = Load; model = Some model;
    line =
      wire
        (Server.Protocol.Load { model; file; builtin; drift; imrm = None }) }

let pinned family model request =
  { family; model = Some model; line = wire request }

let check family model query =
  pinned family model
    (Server.Protocol.Check { model; query; deadline_ms = None })

let global family request =
  { family; model = None; line = wire request }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* [n] continuous draws from [lo, hi), one from each of [n] equal strata,
   in random order: the values differ from seed to seed, but every seed
   covers the range the same way, so a run's cost distribution — and its
   percentiles — barely depend on the seed. *)
let stratified rng n lo hi =
  shuffle rng
    (Array.init n (fun i ->
         lo +. ((hi -. lo) *. (float_of_int i +. Random.State.float rng 1.0)
                /. float_of_int n)))

let spread_aliases ~executors bases =
  Array.init executors (fun shard ->
      List.map
        (fun base ->
          let rec first k =
            let alias = Printf.sprintf "%s.%d" base k in
            if Server.Service.shard_of_name ~executors alias = shard then alias
            else first (k + 1)
          in
          (base, first 0))
        bases)

(* p3-cold: distinct-bound P3 checks alternating between the two explicit
   families.  The warm-up bounds lie outside the drawn ranges, so every
   measured until-memo lookup misses. *)
let p3_cold rng ~blocks n =
  let loads = [ load "adhoc"; load "multiprocessor-tracked" ] in
  let warmup =
    [ check Adhoc_p3 "adhoc" (q3 ~t:24.0 ~r:600.0);
      check Mp_p3 "multiprocessor-tracked" (mp ~t:100.0 ~r:260.0) ]
  in
  let block () =
    let half = (n + 1) / 2 in
    let adhoc_t = stratified rng half 8.0 16.0 and adhoc_f = stratified rng half 20.0 30.0 in
    let mp_t = stratified rng half 200.0 400.0 and mp_f = stratified rng half 2.4 2.8 in
    Array.init n (fun i ->
        let k = i / 2 in
        if i mod 2 = 0 then
          let t = adhoc_t.(k) in
          check Adhoc_p3 "adhoc" (q3 ~t ~r:(t *. adhoc_f.(k)))
        else
          let t = mp_t.(k) in
          check Mp_p3 "multiprocessor-tracked" (mp ~t ~r:(t *. mp_f.(k))))
  in
  { kind = P3_cold; executors = 1; setup = loads @ warmup;
    blocks; measured = Array.concat (List.init blocks (fun _ -> block ()));
    pinned = [ ((List.hd warmup).line, 0.49699673) ] }

(* serve-warm: one fixed set of requests per executor, on aliases that
   live on that executor; consecutive requests alternate between the
   sets.  The warm-up answers every request once, so the measured phase
   only ever hits warm caches. *)
let serve_warm rng ~blocks n =
  let executors = 2 in
  let aliases = spread_aliases ~executors [ "adhoc"; "mp"; "grid"; "drift" ] in
  let distinct shard =
    let a base = List.assoc base aliases.(shard) in
    let loads =
      [ load ~builtin:"adhoc" (a "adhoc");
        load ~builtin:"multiprocessor-tracked" (a "mp");
        load ~file:grid_file (a "grid");
        load ~builtin:"adhoc" ~drift:2.0 (a "drift") ]
    in
    let weighted =
      [ (20, check Adhoc_p3 (a "adhoc") (q3 ~t:10.0 ~r:250.0));
        (10, check Adhoc_p3 (a "adhoc") (q3 ~t:6.0 ~r:150.0));
        (20, check Mp_p3 (a "mp") (mp ~t:100.0 ~r:260.0));
        (20, check Grid (a "grid") (grid ~t:20.0));
        (20, check Drift (a "drift") (q3 ~t:24.0 ~r:600.0));
        (4,
         pinned Quantile (a "adhoc")
           (Server.Protocol.Quantile
              { model = a "adhoc"; query = q3 ~t:4.0 ~r:100.0;
                variable = Server.Protocol.Time; target = 0.1; hi = 4.0;
                tolerance = 1e-3; deadline_ms = None }));
        (4,
         pinned Frontier (a "adhoc")
           (Server.Protocol.Frontier
              { model = a "adhoc";
                query =
                  "frontier[2] P>=0.1 ( (call_idle | doze) U[t<=2][r<=40] \
                   call_initiated )";
                tolerance = 1e-2; deadline_ms = None }));
        (1, global List Server.Protocol.List_models);
        (1, global Stats Server.Protocol.Stats) ]
    in
    (loads, weighted)
  in
  let sets = Array.init executors distinct in
  (* Each executor's requests are a shuffled deck holding every request
     in proportion to its weight, so every seed sends the same mix. *)
  let deck shard count =
    let _, weighted = sets.(shard) in
    let cards = Array.of_list (List.concat_map (fun (w, r) -> List.init w (fun _ -> r)) weighted) in
    shuffle rng (Array.init count (fun i -> cards.(i mod Array.length cards)))
  in
  (* Loads, then the model-pinned requests, then list/stats, which report
     the registered names and interned states. *)
  let requests keep =
    List.concat_map
      (fun (_, weighted) ->
        List.filter_map (fun (_, r) -> if keep r then Some r else None) weighted)
      (Array.to_list sets)
  in
  let setup =
    List.concat_map fst (Array.to_list sets)
    @ requests (fun r -> r.model <> None)
    @ requests (fun r -> r.model = None)
  in
  (* Request [g] of the whole sequence goes to executor [g mod executors],
     across block boundaries too. *)
  let block b =
    let shard i = ((b * n) + i) mod executors in
    let decks =
      Array.init executors (fun c ->
          deck c (List.length (List.filter (fun i -> shard i = c) (List.init n Fun.id))))
    in
    let dealt = Array.make executors 0 in
    Array.init n (fun i ->
        let c = shard i in
        dealt.(c) <- dealt.(c) + 1;
        decks.(c).(dealt.(c) - 1))
  in
  { kind = Serve_warm; executors; setup; blocks;
    measured = Array.concat (List.init blocks block);
    pinned = [] }

(* symbolic-robust: cold checks alternating between the windowed engine on
   the grid and the robust envelope on the drifted ad hoc model. *)
let symbolic_robust rng ~blocks n =
  let loads =
    [ load ~file:grid_file "grid";
      load ~builtin:"adhoc" ~drift:2.0 "adhoc-drift" ]
  in
  let warmup =
    [ check Grid "grid" (grid ~t:5.0);
      check Drift "adhoc-drift" (q3 ~t:24.0 ~r:600.0) ]
  in
  let block () =
    let half = (n + 1) / 2 in
    let grid_t = stratified rng half 10.0 30.0 in
    let drift_t = stratified rng half 36.0 96.0 and drift_f = stratified rng half 20.0 30.0 in
    Array.init n (fun i ->
        let k = i / 2 in
        if i mod 2 = 0 then check Grid "grid" (grid ~t:grid_t.(k))
        else
          let t = drift_t.(k) in
          check Drift "adhoc-drift" (q3 ~t ~r:(t *. drift_f.(k))))
  in
  { kind = Symbolic_robust; executors = 1;
    setup = loads @ warmup; blocks;
    measured = Array.concat (List.init blocks (fun _ -> block ())); pinned = [] }

let blocks = 25
let passes = 3

(* The passes together send about as many requests as the server answers
   in the run length. *)
let per_block kind ~seconds =
  let n = (seconds * nominal_rps kind) + (passes * blocks) - 1 in
  max 2 (n / (passes * blocks))

let count kind ~seconds = blocks * per_block kind ~seconds

let plan kind ~seed ~seconds =
  let tag = match kind with P3_cold -> 1 | Serve_warm -> 2 | Symbolic_robust -> 3 in
  let rng = Random.State.make [| seed; tag |] in
  let n = per_block kind ~seconds in
  match kind with
  | P3_cold -> p3_cold rng ~blocks n
  | Serve_warm -> serve_warm rng ~blocks n
  | Symbolic_robust -> symbolic_robust rng ~blocks n
