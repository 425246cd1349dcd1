type result = { metrics : (string * string * float) list; mismatches : int }

type model =
  | Explicit of { ctx : Checker.t; init : Linalg.Vec.t; batch : Perf.Batch.t }
  | Symbolic of Perf.Symbolic.t
  | Robust of { ctx : Checker.t; init : Linalg.Vec.t; memo : Checker.memo }

type t = {
  svc : Server.Service.t;
  models : (string, model) Hashtbl.t;
  spans : Spans.t;
  tel : Telemetry.t;
  instance : (Perf.Problem.t, float) Perf.Engine_intf.t;
  expected : string -> Io.Json.t;
  pairs : (string * bool array * bool array, Markov.Mrm.t) Hashtbl.t;
      (* every (model, Sat Phi, Sat Psi) a P3 check has used *)
  mutable reductions : (float * float) list;
      (* Theorem 1 targets and states after reduction, per pair *)
  mutable minor_words : float;
  mutable major_gcs : int;
  mutable mismatches : int;
  mutable p3_solves : (Workload.family * int) list;  (* per P3 check *)
  mutable flops : float;  (* computed spmv flops of the measured solves *)
}

let span st name f = Spans.with_span st.spans name f

let number path json =
  match Oracle.number path json with
  | Some v -> v
  | None -> failwith ("reference answer lacks " ^ String.concat "." path)

let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let expect st ok = if not ok then st.mismatches <- st.mismatches + 1

let register st name =
  match Server.Registry.find (Server.Service.registry st.svc) name with
  | None -> ()
  | Some entry ->
    let model =
      match entry.Server.Registry.payload with
      | Server.Registry.Explicit { ctx; init; _ } ->
        Explicit { ctx; init; batch = Perf.Batch.create () }
      | Server.Registry.Symbolic { sym; _ } -> Symbolic sym
      | Server.Registry.Robust { ctx; init; _ } ->
        Robust { ctx; init; memo = Checker.create_memo () }
    in
    Hashtbl.replace st.models name model

(* The P3 bounds of a [P=? (phi U[t<=T][r<=R] psi)] query. *)
let p3_bounds = function
  | Logic.Ast.Prob_query (Logic.Ast.Until (time, reward, phi, psi))
    when Numerics.Time_interval.lower time = 0.0 -> (
      match
        (Numerics.Time_interval.upper time, Numerics.Time_interval.upper reward)
      with
      | Some t, Some r -> Some (phi, psi, t, r)
      | _ -> None)
  | _ -> None

let cells st =
  Option.value ~default:0 (Telemetry.counter st.tel "sericola.cells")

(* Sericola multiplies |S| x width blocks by the uniformised matrix: two
   flops per stored entry (off-diagonal rates plus the diagonal) per
   cell row — computed from the cell count, not measured. *)
let solve_flops (p : Perf.Problem.t) cells =
  let mrm = p.Perf.Problem.mrm in
  let n = Markov.Mrm.n_states mrm in
  let nnz = Linalg.Csr.nnz (Markov.Ctmc.rates (Markov.Mrm.ctmc mrm)) + n in
  2.0 *. float_of_int cells *. float_of_int nnz /. float_of_int n

let explicit_check st ~model ~family ~ctx ~init ~batch q expected =
  match p3_bounds q with
  | None -> false
  | Some (f, g, time_bound, reward_bound) ->
    let solves = ref 0 in
    let solve p =
      incr solves;
      let before = cells st in
      let v =
        span st "perf.engine.solve" (fun () ->
            Perf.Engine_intf.run ~pool:Parallel.Pool.sequential
              ~telemetry:st.tel st.instance p)
      in
      st.flops <- st.flops +. solve_flops p (cells st - before);
      v
    in
    let value =
      span st "checker.eval" (fun () ->
          let phi = span st "checker.sat" (fun () -> Checker.sat ctx f) in
          let psi = span st "checker.sat" (fun () -> Checker.sat ctx g) in
          Hashtbl.replace st.pairs (model, phi, psi) (Checker.mrm ctx);
          let probs =
            span st "perf.batch.until" (fun () ->
                Perf.Batch.until_probabilities batch
                  ~config:Perf.Reduction.default ~pool:Parallel.Pool.sequential
                  solve (Checker.mrm ctx) ~phi ~psi ~time_bound ~reward_bound)
          in
          Linalg.Vec.dot init probs)
    in
    st.p3_solves <- (family, !solves) :: st.p3_solves;
    expect st (same value (number [ "result"; "value" ] expected));
    true

(* Run one request through the composed layer calls; [false] when the
   request is not a check the composition covers. *)
let composed st (r : Workload.request) (envelope : Server.Protocol.envelope)
    expected =
  match envelope.Server.Protocol.request with
  | Server.Protocol.Check { model; query; _ } -> (
      match Hashtbl.find_opt st.models model with
      | None -> false
      | Some m -> (
          let q = span st "logic.parse" (fun () -> Logic.Parser.query query) in
          match m with
          | Explicit { ctx; init; batch } ->
            explicit_check st ~model ~family:r.Workload.family ~ctx ~init ~batch
              q expected
          | Symbolic sym -> (
              match
                span st "explore.solve" (fun () ->
                    Perf.Symbolic.eval ~epsilon:1e-9 sym q)
              with
              | Perf.Symbolic.Numeric a ->
                expect st (same a.Perf.Symbolic.value (number [ "result"; "value" ] expected));
                true
              | Perf.Symbolic.Boolean _ -> expect st false; true)
          | Robust { ctx; init; memo } -> (
              match
                span st "robust.envelope" (fun () ->
                    Checker.eval_query ~memo ctx q)
              with
              | Checker.Interval env ->
                let lo = Linalg.Vec.dot init env.Robust.Envelope.lo in
                let hi = Linalg.Vec.dot init env.Robust.Envelope.hi in
                expect st
                  (same lo (number [ "result"; "value_lo" ] expected)
                  && same hi (number [ "result"; "value_hi" ] expected));
                true
              | _ -> expect st false; true)))
  | _ -> false

let traced st ~rid (r : Workload.request) expected =
  Spans.set_request st.spans rid;
  span st "request" (fun () ->
      let envelope =
        match
          span st "server.protocol_parse" (fun () ->
              Server.Protocol.of_line r.Workload.line)
        with
        | Ok e -> e
        | Error e -> failwith e.Server.Protocol.message
      in
      span st "server.execute" (fun () ->
          if not (composed st r envelope expected) then begin
            let name =
              if r.Workload.family = Workload.Load then "server.registry.load"
              else "server.service.execute"
            in
            ignore
              (span st name (fun () -> Server.Service.execute st.svc envelope));
            if r.Workload.family = Workload.Load then
              Option.iter (register st) r.Workload.model
          end);
      ignore (span st "server.render" (fun () -> Io.Json.to_string expected)))

(* Theorem 1 and the reduction pipeline run once per (model, Phi, Psi)
   and are cached after; time them on their own, five times each. *)
let reduction_costs st =
  Spans.set_request st.spans (-1);
  let five name f = List.hd (List.init 5 (fun _ -> span st name f)) in
  Hashtbl.fold
    (fun (_, phi, psi) mrm acc ->
      let reduced =
        five "perf.reduced.reduce" (fun () -> Perf.Reduced.reduce mrm ~phi ~psi)
      in
      let prepared =
        five "perf.reduction.prepare" (fun () ->
            Perf.Reduction.prepare_on ~config:Perf.Reduction.default reduced)
      in
      let targets = ref 0 in
      Array.iteri (fun s p -> if p && not psi.(s) then incr targets) phi;
      ( float_of_int !targets,
        float_of_int prepared.Perf.Reduction.stats.Perf.Reduction.states_after )
      :: acc)
    st.pairs []

let create (plan : Workload.plan) ~expected =
  let st =
    { svc = Server.Service.create (Server.Service.default_config ~clock:Client.now ());
      models = Hashtbl.create 16;
      spans = Spans.create ~clock:Client.now;
      tel = Telemetry.create ~clock:Client.now ();
      instance = Perf.Engine.instantiate Perf.Engine.default;
      expected; pairs = Hashtbl.create 8; reductions = [];
      minor_words = 0.0; major_gcs = 0;
      mismatches = 0; p3_solves = []; flops = 0.0 }
  in
  List.iteri
    (fun i (r : Workload.request) -> traced st ~rid:(-2 - i) r (expected r.line))
    plan.Workload.setup;
  st.reductions <- reduction_costs st;
  Telemetry.reset st.tel;
  st.p3_solves <- [];
  st.flops <- 0.0;
  st

let request st i (r : Workload.request) =
  let g0 = Gc.quick_stat () in
  traced st ~rid:i r (st.expected r.Workload.line);
  let g1 = Gc.quick_stat () in
  st.minor_words <- st.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  st.major_gcs <- st.major_gcs + (g1.Gc.major_collections - g0.Gc.major_collections)

let finish st ~untraced =
  let n = Array.length untraced in
  let reductions = st.reductions in
  let all = Spans.spans st.spans in
  let measured = List.filter (fun s -> s.Spans.request >= 0) all in
  let durations name spans =
    List.filter (fun s -> s.Spans.name = name) spans
    |> List.map (fun s -> s.Spans.stop -. s.Spans.start)
    |> Array.of_list
  in
  let med name spans scale =
    let d = durations name spans in
    if Array.length d = 0 then 0.0 else Stats.median d *. scale
  in
  let total name = Stats.sum (durations name measured) in
  (* Layer self time per request: every span under the composed execute
     except the harness's own request/execute/parse/render frame. *)
  let frame = [ "request"; "server.execute"; "server.protocol_parse"; "server.render" ] in
  let layer_self = Array.make n 0.0 in
  List.iter
    (fun (s, self) ->
      if s.Spans.request >= 0 && not (List.mem s.Spans.name frame) then
        layer_self.(s.Spans.request) <- layer_self.(s.Spans.request) +. self)
    (Spans.self_times measured);
  let unattributed =
    Array.mapi (fun i self -> untraced.(i).Oracle.exec -. self) layer_self
  in
  let untraced_total = Stats.sum (Array.map Oracle.total untraced) in
  let solved = List.filter (fun (_, k) -> k > 0) st.p3_solves in
  let per_query xs = if xs = [] then 0.0 else Stats.mean (Array.of_list xs) in
  let adhoc = List.filter_map (fun (f, k) -> if f = Workload.Adhoc_p3 then Some k else None) st.p3_solves in
  if adhoc <> [] then
    Printf.eprintf "perfbench: solves per ad hoc P3 check: min %d, max %d\n%!"
      (List.fold_left min max_int adhoc) (List.fold_left max 0 adhoc);
  let counter name =
    float_of_int (Option.value ~default:0 (Telemetry.counter st.tel name))
  in
  let per_solved_query x =
    if solved = [] then 0.0 else x /. float_of_int (List.length solved)
  in
  let eval_total = total "checker.eval" in
  { mismatches = st.mismatches;
    metrics =
      [ ("server.protocol_parse_us", "us", med "server.protocol_parse" measured 1e6);
        ("server.render_us", "us", med "server.render" measured 1e6);
        ("server.registry_load_ms", "ms",
         Stats.sum (durations "server.registry.load" all) *. 1e3);
        ("logic.parse_us", "us", med "logic.parse" measured 1e6);
        ("checker.sat_us", "us", med "checker.sat" measured 1e6);
        ("checker.eval_ms", "ms", med "checker.eval" measured 1e3);
        ("perf.reduced.reduce_ms", "ms", med "perf.reduced.reduce" all 1e3);
        ("perf.reduced.targets", "count", per_query (List.map fst reductions));
        ("perf.reduction.prepare_ms", "ms", med "perf.reduction.prepare" all 1e3);
        ("perf.reduction.states_after", "count", per_query (List.map snd reductions));
        ("perf.engine.solves_per_query", "count",
         per_query (List.map (fun (_, k) -> float_of_int k) st.p3_solves));
        ("perf.engine.solves_per_adhoc_query", "count",
         per_query (List.map float_of_int adhoc));
        ("perf.engine.solve_ms", "ms", med "perf.engine.solve" measured 1e3);
        ("perf.engine.share", "ratio",
         if eval_total > 0.0 then total "perf.engine.solve" /. eval_total else 0.0);
        ("perf.sericola.layers", "count", per_solved_query (counter "sericola.layers"));
        ("perf.sericola.cells", "count", per_solved_query (counter "sericola.cells"));
        ("linalg.spmv_flops_computed", "flop", per_solved_query st.flops);
        ("explore.solve_ms", "ms", med "explore.solve" measured 1e3);
        ("robust.envelope_ms", "ms", med "robust.envelope" measured 1e3);
        ("runtime.minor_words_per_req", "words", st.minor_words /. float_of_int n);
        ("runtime.major_gcs_per_req", "count", float_of_int st.major_gcs /. float_of_int n);
        ("trace.overhead_ratio", "ratio",
         if untraced_total > 0.0 then total "request" /. untraced_total else 0.0);
        ("trace.unattributed_ms", "ms", Stats.mean unattributed *. 1e3) ] }
