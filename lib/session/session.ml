type config = {
  engine : Perf.Engine.spec;
  epsilon : float;
  reduction : Perf.Reduction.config;
  pool : Parallel.Pool.t;
  telemetry : Telemetry.t option;
}

let engine_of_string ~epsilon text =
  match Perf.Engine.of_string text with
  | Ok (Perf.Engine.Windowed _) when text = "windowed" ->
    Ok (Perf.Engine.Windowed { epsilon })
  | parsed -> parsed

type t =
  | Explicit of {
      config : config;
      mrm : Markov.Mrm.t;
      labeling : Markov.Labeling.t;
      init : Linalg.Vec.t;
      ctx : Checker.t;
      memo : Checker.memo;
    }
  | Symbolic of { config : config; path : string; sym : Perf.Symbolic.t }
  | Robust of {
      config : config;
      imrm : Robust.Imrm.t;
      labeling : Markov.Labeling.t;
      init : Linalg.Vec.t;
      ctx : Checker.t;
      memo : Checker.memo;
    }

let config = function
  | Explicit { config; _ } | Symbolic { config; _ } | Robust { config; _ } ->
    config

let n_states = function
  | Explicit { mrm; _ } -> Markov.Mrm.n_states mrm
  | Symbolic { sym; _ } -> Perf.Symbolic.n_states sym
  | Robust { imrm; _ } -> Robust.Imrm.n_states imrm

(* A symbolic model is always solved by the windowed engine: the engine
   choice only contributes its accuracy. *)
let windowed_epsilon config =
  match config.engine with
  | Perf.Engine.Windowed { epsilon } -> epsilon
  | _ -> config.epsilon

let of_explicit config mrm labeling init =
  let ctx =
    Checker.make ~engine:config.engine ~epsilon:config.epsilon
      ~pool:config.pool ?telemetry:config.telemetry
      ~reduction:config.reduction mrm labeling
  in
  Explicit { config; mrm; labeling; init; ctx; memo = Checker.create_memo () }

let of_robust config imrm labeling init =
  let ctx =
    Checker.make_robust ~engine:config.engine ~epsilon:config.epsilon
      ~pool:config.pool ?telemetry:config.telemetry
      ~reduction:config.reduction imrm labeling
  in
  Robust { config; imrm; labeling; init; ctx; memo = Checker.create_memo () }

(* ------------------------------------------------------------------ *)
(* Loading.                                                             *)

type source = Builtin of string | File of string | Imrm of string

type load_error = Unknown_model of string | Load_error of string

let load_error_message = function
  | Unknown_model name -> Printf.sprintf "unknown built-in model %S" name
  | Load_error message -> message

let load ?(materialise = false) ?drift config source =
  let failed fmt = Printf.ksprintf (fun m -> Error (Load_error m)) fmt in
  let widen (mrm, labeling, init) =
    match drift with
    | None -> Ok (of_explicit config mrm labeling init)
    | Some pct -> begin
        match Robust.Imrm.of_mrm ~rate_drift:(pct /. 100.0) mrm with
        | imrm -> Ok (of_robust config imrm labeling init)
        | exception Invalid_argument message -> Error (Load_error message)
      end
  in
  let gcm path = Filename.check_suffix path ".gcm" in
  match source with
  | Imrm path when drift <> None ->
    failed "%s: an interval model cannot be widened again" path
  | File path when gcm path && drift <> None ->
    failed "%s: .gcm models cannot be widened into interval models" path
  | Imrm path -> begin
      match Robust.Imrm_io.parse_file path with
      | doc ->
        Ok
          (of_robust config doc.Robust.Imrm_io.imrm doc.Robust.Imrm_io.labeling
             doc.Robust.Imrm_io.init)
      | exception Robust.Imrm_io.Format_error message ->
        failed "interval model %s: %s" path message
      | exception Sys_error message -> Error (Load_error message)
    end
  | File path when gcm path -> begin
      match Lang.Gcm.load_file path with
      | Error message -> Error (Load_error message)
      | Ok succ when not materialise ->
        Ok (Symbolic { config; path; sym = Perf.Symbolic.create succ })
      | Ok succ -> begin
          match Explore.Materialise.materialise (Explore.Space.create succ) with
          | Ok (mrm, labeling, init_id) ->
            Ok
              (of_explicit config mrm labeling
                 (Linalg.Vec.unit (Markov.Mrm.n_states mrm) init_id))
          | Error n ->
            failed
              "%s: more than %d reachable states; explicit engines cannot \
               materialise it — use --engine windowed"
              path n
          | exception Lang.Gcm.Runtime_error message ->
            failed "%s: runtime error: %s" path message
        end
    end
  | File path -> begin
      match Io.Mrm_format.parse_file path with
      | doc ->
        widen
          (doc.Io.Mrm_format.mrm, doc.Io.Mrm_format.labeling,
           doc.Io.Mrm_format.init)
      | exception Io.Mrm_format.Syntax_error (message, line) ->
        failed "%s:%d: %s" path line message
      | exception Sys_error message -> Error (Load_error message)
    end
  | Builtin name -> begin
      match Models.Builtin.load name with
      | Some model -> widen model
      | None -> begin
          match Models.Builtin.load_robust name with
          | Some _ when drift <> None ->
            failed "%s: a -drift model cannot be widened again" name
          | Some (imrm, labeling, init) -> Ok (of_robust config imrm labeling init)
          | None -> Error (Unknown_model name)
          | exception Invalid_argument message ->
            failed "cannot widen %s: %s" name message
        end
    end

(* ------------------------------------------------------------------ *)
(* Answering.                                                           *)

type refusal = { code : string; message : string }

type operation = [ `Batch | `Quantile | `Frontier | `Inspect ]

(* The one refusal rule, returning the checker an accepted operation
   runs on: explicit sessions take everything, robust ones only batches
   (their answers are envelopes, not the point probabilities a
   bisection or a matrix dump needs), symbolic ones none of these. *)
let checker_for t (op : operation) =
  let refuse message = Error { code = "unsupported"; message } in
  match t, op with
  | Explicit { ctx; memo; init; _ }, _ | Robust { ctx; memo; init; _ }, `Batch ->
    Ok (ctx, memo, init)
  | Robust _, `Quantile ->
    refuse
      "quantile search needs point probabilities; check the interval \
       model's envelopes with P queries instead"
  | Robust _, `Frontier ->
    refuse
      "frontier sweeps need point probabilities; check the interval \
       model's envelopes with P queries instead"
  | Robust _, `Inspect ->
    refuse
      "--lump and --info need a point-valued model; interval models answer \
       P queries, state formulas and --batch"
  | Symbolic _, `Quantile ->
    refuse
      "quantile search runs on explicit models only; check the .gcm model \
       directly or load its materialised .mrm"
  | Symbolic _, `Frontier ->
    refuse
      "frontier sweeps run on explicit models only; check the .gcm model \
       directly or load its materialised .mrm"
  | Symbolic _, (`Batch | `Inspect) ->
    refuse
      "--info, --lump, --batch and --frontier need an explicit state space; \
       rerun with an explicit engine (e.g. --engine sericola) to materialise \
       the .gcm model"

let refusal t op =
  match checker_for t op with Ok _ -> None | Error r -> Some r

type frontier = {
  target : float;
  time_bound : float;
  reward_bound : float;
  grid : int;
  tolerance : float;
  points : Perf.Frontier.point list;
  evaluations : int;
}

type answer =
  | Verdict of { verdict : Checker.verdict; init : Linalg.Vec.t }
  | Certified of Perf.Symbolic.outcome
  | Frontier of frontier
  | Quantile of Perf.Frontier.outcome

let ( let* ) = Result.bind

(* Per-query solve failures become refusals, so one bad query never
   kills a batch run or a serving executor. *)
let guarded f =
  let fail code message = Error { code; message } in
  match f () with
  | v -> Ok v
  | exception Numerics.Cancel.Cancelled reason -> fail "deadline_exceeded" reason
  | exception Checker.Unsupported message -> fail "unsupported" message
  | exception Perf.Symbolic.Unsupported message -> fail "unsupported" message
  | exception Lang.Gcm.Runtime_error message -> fail "model_runtime_error" message
  | exception Markov.Labeling.Unknown_proposition p ->
    fail "unknown_proposition" (Printf.sprintf "unknown atomic proposition %S" p)
  | exception Invalid_argument message -> fail "invalid_argument" message
  | exception Failure message -> fail "internal" message

let check ?cancel t query =
  guarded (fun () ->
      match t with
      | Explicit { ctx; memo; init; _ } | Robust { ctx; memo; init; _ } ->
        let ctx = Checker.with_cancel ctx cancel in
        Verdict { verdict = Checker.eval_query ~memo ctx query; init }
      | Symbolic { config; sym; _ } ->
        Certified
          (Perf.Symbolic.eval ?telemetry:config.telemetry ?cancel
             ~epsilon:(windowed_epsilon config) sym query))

(* The probability of a [P=?] until probe from the initial distribution.
   Every probe is an ordinary solve with the shared memo, so it is
   bit-identical to a cold check of the same bounds. *)
let probe ~memo ~init ctx time reward phi psi =
  let query = Logic.Ast.Prob_query (Logic.Ast.Until (time, reward, phi, psi)) in
  match Checker.eval_query ~memo ctx query with
  | Checker.Numeric values -> Linalg.Vec.dot init values
  | _ -> failwith "a P=? probe answered no probability vector"

(* The sweep of a frontier query, or [None] for any other query form. *)
let sweeper (query : Logic.Ast.query) =
  match query with
  | Logic.Ast.Frontier_query
      { points = grid; target; path = Logic.Ast.Until (time, reward, phi, psi) }
    ->
    Some
      (fun ~telemetry ~memo ~init ~tolerance ctx ->
        let upper what interval =
          match Numerics.Time_interval.upper interval with
          | Some b when Float.is_finite b && b > 0.0 -> b
          | _ ->
            invalid_arg
              (Printf.sprintf "frontier: the %s bound must be a finite '[%s<=B]'"
                 what (String.sub what 0 1))
        in
        let time_bound = upper "time" time in
        let reward_bound = upper "reward" reward in
        let eval ~t ~r =
          probe ~memo ~init ctx (Numerics.Time_interval.upto t)
            (Numerics.Time_interval.upto r) phi psi
        in
        let s =
          Perf.Frontier.sweep ~eval ~target ~time_bound ~reward_bound
            ~points:grid ~tolerance
        in
        Telemetry.add telemetry "frontier.grid" grid;
        Telemetry.add telemetry "frontier.points"
          (List.length s.Perf.Frontier.points);
        Telemetry.add telemetry "frontier.evaluations" s.Perf.Frontier.evaluations;
        Frontier
          { target; time_bound; reward_bound; grid; tolerance;
            points = s.Perf.Frontier.points;
            evaluations = s.Perf.Frontier.evaluations })
  | _ -> None

let frontier ?cancel ?(tolerance = 1e-6) t query =
  match sweeper query with
  | Some run ->
    let* ctx, memo, init = checker_for t `Frontier in
    let ctx = Checker.with_cancel ctx cancel in
    guarded (fun () ->
        run ~telemetry:(config t).telemetry ~memo ~init ~tolerance ctx)
  | None ->
    Error
      { code = "bad_request";
        message =
          "frontier needs a frontier query: 'frontier[N] P>=p ( phi \
           U[t<=T][r<=R] psi )'" }

let quantile ?cancel t ~variable ~target ~hi ~tolerance (query : Logic.Ast.query) =
  match query with
  | Logic.Ast.Prob_query (Logic.Ast.Until (time, reward, phi, psi)) ->
    let* ctx, memo, init = checker_for t `Quantile in
    let ctx = Checker.with_cancel ctx cancel in
    (* The bound on [variable] in the query text is a placeholder: each
       probe re-solves with it set to [x], reusing the prepared Theorem 1
       and reduction caches keyed by the Sat-sets. *)
    let eval x =
      let bound = Numerics.Time_interval.upto x in
      match variable with
      | `Time -> probe ~memo ~init ctx bound reward phi psi
      | `Reward -> probe ~memo ~init ctx time bound phi psi
    in
    guarded (fun () -> Quantile (Perf.Frontier.probe ~eval ~target ~hi ~tolerance))
  | _ ->
    Error
      { code = "bad_request";
        message = "quantile needs a P=? query whose path formula is an until" }

let fox_glynn_counters ?since () =
  let now = Numerics.Fox_glynn.cache_counters () in
  let base =
    Option.value since
      ~default:{ Numerics.Fox_glynn.lookups = 0; hits = 0; misses = 0 }
  in
  { Perf.Batch.lookups = now.lookups - base.lookups;
    hits = now.hits - base.hits;
    misses = now.misses - base.misses }

(* Plain queries of a batch, across the pool: per-query kernels run on
   the sequential pool, so each answer is the exact single-query code
   path (the bit-identity invariant) and parallelism lives across
   queries, one whole query per chunk. *)
let run_queries ~pool ~telemetry ~memo ctx queries =
  let base = Checker.with_pool ctx Parallel.Pool.sequential in
  let fg_before = Numerics.Fox_glynn.cache_counters () in
  let queries = Array.of_list queries in
  let n = Array.length queries in
  let results = Array.make n None in
  let rollup = Mutex.create () in
  let eval i =
    let own =
      Option.map (fun t -> Telemetry.create ~clock:(Telemetry.clock t) ()) telemetry
    in
    let verdict =
      Checker.eval_query ~memo (Checker.with_telemetry base own) queries.(i)
    in
    (* Several domains may finish at once: absorb under a lock. *)
    (match telemetry, own with
     | Some session, Some t ->
       Mutex.protect rollup (fun () -> Telemetry.absorb session (Telemetry.report t))
     | _ -> ());
    results.(i) <- Some verdict
  in
  Parallel.Pool.parallel_for ~cutoff:1 pool ~lo:0 ~hi:n (fun lo hi ->
      for i = lo to hi - 1 do
        eval i
      done);
  if telemetry <> None then begin
    Telemetry.add telemetry "batch.queries" n;
    List.iter
      (fun (name, (c : Perf.Batch.counters)) ->
        let add what v = Telemetry.add telemetry (Printf.sprintf "batch.%s.%s" name what) v in
        add "lookups" c.Perf.Batch.lookups;
        add "hits" c.Perf.Batch.hits;
        add "misses" c.Perf.Batch.misses)
      (Checker.memo_counters memo
      @ [ ("fox_glynn", fox_glynn_counters ~since:fg_before ()) ])
  end;
  Array.to_list (Array.map Option.get results)

let batch t queries =
  let* ctx, memo, init = checker_for t `Batch in
  let sweeps = List.map sweeper queries in
  let* () =
    if List.exists Option.is_some sweeps then
      Result.map ignore (checker_for t `Frontier)
    else Ok ()
  in
  let { pool; telemetry; _ } = config t in
  guarded (fun () ->
      let plain =
        List.combine queries sweeps
        |> List.filter_map (fun (q, s) -> if Option.is_none s then Some q else None)
      in
      let verdicts = ref (run_queries ~pool ~telemetry ~memo ctx plain) in
      (* Frontier entries run after the plain ones, sequentially, over the
         same memo — their probes reuse and extend the caches. *)
      List.map
        (function
          | Some run -> run ~telemetry ~memo ~init ~tolerance:1e-6 ctx
          | None ->
            let verdict = List.hd !verdicts in
            verdicts := List.tl !verdicts;
            Verdict { verdict; init })
        sweeps)

(* ------------------------------------------------------------------ *)
(* Rendering.                                                           *)

let num x = Io.Json.Number x
let int n = Io.Json.Number (float_of_int n)

(* The initial distribution's mass on the states a predicate keeps. *)
let mass init n keep =
  Linalg.Vec.dot init (Linalg.Vec.init n (fun s -> if keep s then 1.0 else 0.0))

(* A three-valued verdict's mass envelope: certainly-satisfying states
   below, not-certainly-violating ones above. *)
let tri_mass init tris =
  let n = Array.length tris in
  ( mass init n (fun s -> tris.(s) = Checker.Holds),
    mass init n (fun s -> tris.(s) <> Checker.Fails) )

let kind = function
  | Verdict { verdict = Checker.Boolean _; _ } -> "boolean"
  | Verdict { verdict = Checker.Numeric _; _ } -> "numeric"
  | Verdict { verdict = Checker.Three_valued _; _ } -> "three-valued"
  | Verdict { verdict = Checker.Interval _; _ } -> "interval"
  | Certified (Perf.Symbolic.Numeric _) -> "numeric"
  | Certified (Perf.Symbolic.Boolean _) -> "boolean"
  | Frontier _ -> "frontier"
  | Quantile _ -> "quantile"

(* Symbolic answers carry a certified interval instead of a per-state
   vector: there is no enumerated state space to report over. *)
let certified_fields (a : Perf.Symbolic.answer) =
  [ ("value", num a.Perf.Symbolic.value);
    ("delta", num a.Perf.Symbolic.delta);
    ("lower", num a.Perf.Symbolic.lower);
    ("upper", num a.Perf.Symbolic.upper);
    ("fallback", Io.Json.Bool a.Perf.Symbolic.fallback) ]
  @
  match a.Perf.Symbolic.stats with
  | None -> []
  | Some s ->
    [ ("window",
       Io.Json.Object
         [ ("peak_window", int s.Explore.Windowed.peak_window);
           ("states_expanded", int s.Explore.Windowed.states_expanded);
           ("mass_dropped", num s.Explore.Windowed.mass_dropped);
           ("iterations", int s.Explore.Windowed.iterations);
           ("restarts", int s.Explore.Windowed.restarts);
           ("rate", num s.Explore.Windowed.rate) ]) ]

let fields ?(evaluations_last = false) answer =
  let vector v =
    Io.Json.List (List.init (Linalg.Vec.length v) (fun s -> num v.{s}))
  in
  match answer with
  | Verdict { verdict = Checker.Boolean mask; init } ->
    [ ("initial_mass", num (mass init (Array.length mask) (Array.get mask)));
      ("states", Io.Json.List (Array.to_list (Array.map (fun b -> Io.Json.Bool b) mask))) ]
  | Verdict { verdict = Checker.Numeric values; init } ->
    [ ("value", num (Linalg.Vec.dot init values)); ("states", vector values) ]
  | Verdict { verdict = Checker.Three_valued tris; init } ->
    let lo, hi = tri_mass init tris in
    [ ("initial_mass_lo", num lo);
      ("initial_mass_hi", num hi);
      ("states",
       Io.Json.List
         (Array.to_list
            (Array.map (fun v -> Io.Json.String (Checker.tri_to_string v)) tris))) ]
  | Verdict { verdict = Checker.Interval env; init } ->
    let lo = env.Robust.Envelope.lo and hi = env.Robust.Envelope.hi in
    [ ("value_lo", num (Linalg.Vec.dot init lo));
      ("value_hi", num (Linalg.Vec.dot init hi));
      ("states",
       Io.Json.List
         (List.init (Linalg.Vec.length lo) (fun s ->
              Io.Json.List [ num lo.{s}; num hi.{s} ]))) ]
  | Certified (Perf.Symbolic.Numeric a) -> certified_fields a
  | Certified (Perf.Symbolic.Boolean (sat, a)) ->
    ("satisfied", Io.Json.Bool sat)
    :: Option.fold ~none:[] ~some:certified_fields a
  | Frontier f ->
    let points =
      ( "points",
        Io.Json.List
          (List.map
             (fun (p : Perf.Frontier.point) ->
               Io.Json.Object
                 [ ("t", num p.Perf.Frontier.t);
                   ("r", num p.Perf.Frontier.r);
                   ("probability", num p.Perf.Frontier.probability) ])
             f.points) )
    in
    let evaluations = ("evaluations", int f.evaluations) in
    [ ("target", num f.target);
      ("time_bound", num f.time_bound);
      ("reward_bound", num f.reward_bound);
      ("grid", int f.grid);
      ("tolerance", num f.tolerance) ]
    @ if evaluations_last then [ points; evaluations ] else [ evaluations; points ]
  | Quantile q ->
    [ ("value", Option.fold ~none:Io.Json.Null ~some:num q.Perf.Frontier.value);
      ("achieved", num q.Perf.Frontier.achieved);
      ("evaluations", int q.Perf.Frontier.evaluations) ]

let to_json answer = ("kind", Io.Json.String (kind answer)) :: fields answer

let engine_label t =
  let spec = Format.asprintf "%a" Perf.Engine.pp_spec in
  match t with
  | Explicit { config; _ } -> spec config.engine
  | Symbolic { config; _ } ->
    spec (Perf.Engine.Windowed { epsilon = windowed_epsilon config })
  | Robust { config; _ } -> "robust-envelope over " ^ spec config.engine

let interval_shape imrm =
  Printf.sprintf "%d states, %d rate intervals, max width %g"
    (Robust.Imrm.n_states imrm) (Robust.Imrm.n_transitions imrm)
    (Robust.Imrm.max_width imrm)

let propositions_text t =
  let b = Buffer.create 256 in
  let counted labeling =
    List.iter
      (fun p ->
        let count =
          Array.fold_left (fun acc sat -> if sat then acc + 1 else acc) 0
            (Markov.Labeling.sat labeling p)
        in
        Printf.bprintf b "  %-24s (%d states)\n" p count)
      (Markov.Labeling.propositions labeling)
  in
  (match t with
   | Explicit { mrm; labeling; _ } ->
     Printf.bprintf b "model: %d states, %d transitions\n" (Markov.Mrm.n_states mrm)
       (Linalg.Csr.nnz (Markov.Ctmc.rates (Markov.Mrm.ctmc mrm)));
     counted labeling
   | Robust { imrm; labeling; _ } ->
     Printf.bprintf b "interval model: %s\n" (interval_shape imrm);
     counted labeling
   | Symbolic { path; sym; _ } ->
     Printf.bprintf b "symbolic model: %s (state space explored on demand)\n" path;
     List.iter (Printf.bprintf b "  %s\n")
       (Perf.Symbolic.succ_model sym).Explore.Succ.propositions);
  Buffer.contents b

let text t query answer =
  let b = Buffer.create 1024 in
  (match answer with
   | Verdict _ | Certified _ ->
     Printf.bprintf b "query:  %s\nengine: %s\n"
       (Format.asprintf "%a" Logic.Ast.pp_query query)
       (engine_label t);
     (match t with
      | Robust { imrm; _ } -> Printf.bprintf b "model:  %s\n" (interval_shape imrm)
      | Explicit _ | Symbolic _ -> ())
   | Frontier _ | Quantile _ -> ());
  let states cell =
    match t with
    | Explicit { labeling; _ } | Robust { labeling; _ } ->
      for s = 0 to Markov.Labeling.n_states labeling - 1 do
        let labels = String.concat "," (Markov.Labeling.labels_of_state labeling s) in
        Printf.bprintf b "  state %2d  [%-40s]  %s\n" s
          (if labels = "" then "-" else labels)
          (cell s)
      done
    | Symbolic _ -> ()
  in
  let certified (a : Perf.Symbolic.answer) =
    Printf.bprintf b "certified interval: [%.12g, %.12g] (delta %.3g <= epsilon %g)\n"
      a.Perf.Symbolic.lower a.Perf.Symbolic.upper a.Perf.Symbolic.delta
      (windowed_epsilon (config t));
    match a.Perf.Symbolic.stats with
    | Some s ->
      Printf.bprintf b
        "window: peak=%d expanded=%d dropped=%.3g iterations=%d restarts=%d rate=%g\n"
        s.Explore.Windowed.peak_window s.Explore.Windowed.states_expanded
        s.Explore.Windowed.mass_dropped s.Explore.Windowed.iterations
        s.Explore.Windowed.restarts s.Explore.Windowed.rate
    | None ->
      Buffer.add_string b
        "solved via the materialised explicit model (reward bound active \
         inside the window)\n"
  in
  let satisfied sat = if sat then "SATISFIED" else "violated" in
  (match answer with
   | Verdict { verdict = Checker.Boolean mask; init } ->
     states (fun s -> satisfied mask.(s));
     Printf.bprintf b "initial distribution satisfies the formula with mass %g\n"
       (mass init (Array.length mask) (Array.get mask))
   | Verdict { verdict = Checker.Numeric probs; init } ->
     states (fun s -> Printf.sprintf "%.10f" probs.{s});
     Printf.bprintf b "value from the initial distribution: %.10f\n"
       (Linalg.Vec.dot init probs)
   | Verdict { verdict = Checker.Three_valued tris; init } ->
     states (fun s ->
         match tris.(s) with
         | Checker.Unknown -> "UNKNOWN"
         | v -> satisfied (v = Checker.Holds));
     let lo, hi = tri_mass init tris in
     Printf.bprintf b
       "initial distribution satisfies the formula with mass in [%g, %g]\n" lo hi
   | Verdict { verdict = Checker.Interval env; init } ->
     let lo = env.Robust.Envelope.lo and hi = env.Robust.Envelope.hi in
     states (fun s -> Printf.sprintf "[%.10f, %.10f]" lo.{s} hi.{s});
     Printf.bprintf b "value from the initial distribution: [%.10f, %.10f]\n"
       (Linalg.Vec.dot init lo) (Linalg.Vec.dot init hi)
   | Certified (Perf.Symbolic.Numeric a) ->
     Printf.bprintf b "value from the initial state: %.10f\n" a.Perf.Symbolic.value;
     certified a
   | Certified (Perf.Symbolic.Boolean (sat, a)) ->
     Printf.bprintf b "verdict at the initial state: %s\n" (satisfied sat);
     Option.iter certified a
   | Frontier f ->
     let row (p : Perf.Frontier.point) =
       List.map (Printf.sprintf "%.17g")
         [ p.Perf.Frontier.t; p.Perf.Frontier.r; p.Perf.Frontier.probability ]
     in
     Buffer.add_string b
       (Io.Csv.render ~header:[ "t"; "r"; "probability" ] (List.map row f.points))
   | Quantile _ ->
     Buffer.add_string b (Io.Json.to_string (Io.Json.Object (to_json answer)));
     Buffer.add_char b '\n');
  Buffer.contents b

let exit_code = function
  | Verdict { verdict = Checker.Boolean mask; init } ->
    if mass init (Array.length mask) (Array.get mask) < 1.0 then 1 else 0
  | Verdict { verdict = Checker.Three_valued tris; init } ->
    let lo, hi = tri_mass init tris in
    if hi < 1.0 then 1 else if lo < 1.0 then 3 else 0
  | Certified (Perf.Symbolic.Boolean (false, _)) -> 1
  | Verdict _ | Certified _ | Frontier _ | Quantile _ -> 0

let summary_json = function
  | Explicit { mrm; _ } ->
    [ ("states", int (Markov.Mrm.n_states mrm));
      ("transitions", int (Linalg.Csr.nnz (Markov.Ctmc.rates (Markov.Mrm.ctmc mrm)))) ]
  | Symbolic { sym; _ } ->
    (* The reachable space is discovered on demand; only the interned
       count exists (the initial state, at load time). *)
    [ ("symbolic", Io.Json.Bool true); ("states_interned", int (Perf.Symbolic.n_states sym)) ]
  | Robust { imrm; _ } ->
    [ ("robust", Io.Json.Bool true);
      ("states", int (Robust.Imrm.n_states imrm));
      ("transitions", int (Robust.Imrm.n_transitions imrm));
      ("max_width", num (Robust.Imrm.max_width imrm)) ]

let counter_json (c : Perf.Batch.counters) =
  Io.Json.Object
    [ ("lookups", int c.Perf.Batch.lookups);
      ("hits", int c.Perf.Batch.hits);
      ("misses", int c.Perf.Batch.misses);
      ("hit_rate", num (Perf.Batch.hit_rate c)) ]

let cache_counters ?fox_glynn_since t =
  match t with
  | Symbolic _ -> []
  | Explicit { memo; _ } | Robust { memo; _ } ->
    Checker.memo_counters memo
    @ Option.fold ~none:[]
        ~some:(fun since -> [ ("fox_glynn", fox_glynn_counters ~since ()) ])
        fox_glynn_since

let cache_json ?fox_glynn_since t =
  match t with
  | Symbolic { sym; _ } ->
    Io.Json.Object [ ("query_memo_entries", int (Perf.Symbolic.memo_size sym)) ]
  | Explicit _ | Robust _ ->
    Io.Json.Object
      (List.map
         (fun (name, c) -> (name, counter_json c))
         (cache_counters ?fox_glynn_since t))

let record_pool_stats t telemetry =
  match t with
  | Explicit { config; _ } | Robust { config; _ } ->
    Io.Trace.record_pool_stats telemetry config.pool
  | Symbolic _ -> ()
