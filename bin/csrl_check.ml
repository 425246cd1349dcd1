(* csrl-check: command-line CSRL model checker over Markov reward models.

   Usage sketch:
     csrl-check --model adhoc 'P>0.5 ( (call_idle|doze) U[t<=24][r<=600] call_initiated )'
     csrl-check --file station.mrm --engine erlang:256 'P=? ( F[t<=2] down )'
     csrl-check --model adhoc --list-propositions *)

let fail message =
  prerr_endline message;
  exit 2

let print_info mrm labeling init =
  let chain = Markov.Mrm.ctmc mrm in
  let n = Markov.Mrm.n_states mrm in
  Printf.printf "states:        %d\n" n;
  Printf.printf "transitions:   %d\n" (Linalg.Csr.nnz (Markov.Ctmc.rates chain));
  Printf.printf "max exit rate: %g\n" (Markov.Ctmc.max_exit_rate chain);
  let levels =
    Markov.Mrm.reward_levels mrm |> Array.to_list
    |> List.map (Printf.sprintf "%g") |> String.concat ", "
  in
  Printf.printf "reward levels: {%s}\n" levels;
  Printf.printf "impulses:      %s\n"
    (if Markov.Mrm.has_impulses mrm then
       Printf.sprintf "yes (max %g)" (Markov.Mrm.max_impulse mrm)
     else "no");
  let g = Markov.Ctmc.graph chain in
  let scc = Graph.Scc.compute g in
  let bottoms = Graph.Scc.bottom_components g scc in
  Printf.printf "SCCs:          %d (%d bottom)\n" scc.Graph.Scc.count
    (List.length bottoms);
  Printf.printf "propositions:  %s\n"
    (String.concat ", " (Markov.Labeling.propositions labeling));
  let pi = Markov.Steady.distribution chain ~init in
  Printf.printf "long-run distribution from the initial distribution:\n";
  Linalg.Vec.iteri
    (fun s p ->
      if p > 1e-12 then
        Printf.printf "  state %2d  [%s]  %.8f\n" s
          (String.concat "," (Markov.Labeling.labels_of_state labeling s))
          p)
    pi;
  Printf.printf "long-run reward rate: %g\n"
    (Markov.Expected_reward.steady_rate mrm ~init)

(* bechamel's monotonic clock returns nanoseconds. *)
let monotonic_seconds () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* ------------------------------------------------------------------ *)
(* Batch files: a JSON list of named queries.                          *)

let batch_usage =
  "expected {\"queries\": [...]} where each element is a query string or \
   an object {\"query\": \"...\", \"name\": \"...\"}"

let parse_batch_file path =
  let fail message = fail (Printf.sprintf "batch file %s: %s" path message) in
  let text =
    if path = "-" then In_channel.input_all stdin
    else
      try In_channel.with_open_text path In_channel.input_all
      with Sys_error message -> fail message
  in
  let document =
    try Io.Json.of_string text
    with Io.Json.Parse_error (message, offset) ->
      fail (Printf.sprintf "JSON parse error at offset %d: %s" offset message)
  in
  let items =
    match Io.Json.member "queries" document with
    | Some (Io.Json.List items) when items <> [] -> items
    | Some (Io.Json.List []) -> fail ("empty \"queries\" list; " ^ batch_usage)
    | _ -> fail batch_usage
  in
  List.mapi
    (fun i item ->
      let name, text =
        match item with
        | Io.Json.String text -> (Printf.sprintf "q%d" i, text)
        | Io.Json.Object _ as obj -> begin
            let name =
              match Option.bind (Io.Json.member "name" obj) Io.Json.to_text with
              | Some n -> n
              | None -> Printf.sprintf "q%d" i
            in
            match Option.bind (Io.Json.member "query" obj) Io.Json.to_text with
            | Some text -> (name, text)
            | None ->
              fail (Printf.sprintf "queries[%d] has no \"query\" string" i)
          end
        | _ -> fail (Printf.sprintf "queries[%d]: %s" i batch_usage)
      in
      match Logic.Parser.query text with
      | query -> (name, query)
      | exception Logic.Parser.Parse_error (message, pos) ->
        fail
          (Printf.sprintf "query %s: parse error at position %d: %s" name pos
             message))
    items

let unknown_model name =
  prerr_endline (Printf.sprintf "unknown model %S; built-in models:" name);
  List.iter
    (fun (n, d) -> prerr_endline (Printf.sprintf "  %-16s %s" n d))
    Models.Builtin.all;
  prerr_endline "interval variants:";
  List.iter
    (fun (n, d) -> prerr_endline (Printf.sprintf "  %-16s %s" n d))
    Models.Builtin.all_robust;
  exit 2

let run model_name file engine_text epsilon jobs trace stats list_props info
    lump no_reduce batch_file frontier_fmt rate_drift imrm_file formula_text =
  let jobs =
    match jobs with
    | Some j when j >= 1 -> j
    | Some _ -> fail "--jobs needs a positive count"
    | None -> 1
  in
  if not (epsilon > 0.0 && epsilon < 1.0) then
    fail "--epsilon needs a value in (0,1)";
  (match rate_drift with
   | Some pct when not (pct >= 0.0 && pct < 100.0) ->
     fail "--rate-drift needs a percentage in [0, 100)"
   | _ -> ());
  if imrm_file <> None && (file <> None || rate_drift <> None) then
    fail "--imrm cannot be combined with --file or --rate-drift";
  (match frontier_fmt with
   | None | Some ("json" | "csv") -> ()
   | Some other ->
     fail (Printf.sprintf "--frontier needs \"json\" or \"csv\", not %S" other));
  if frontier_fmt <> None && batch_file <> None then
    fail "--frontier cannot be combined with --batch";
  let engine =
    match Session.engine_of_string ~epsilon engine_text with
    | Ok e -> e
    | Error message -> fail message
  in
  let source =
    match imrm_file, file with
    | Some path, _ -> Session.Imrm path
    | None, Some path -> Session.File path
    | None, None when Filename.check_suffix model_name ".gcm" ->
      Session.File model_name
    | None, None -> Session.Builtin model_name
  in
  let telemetry =
    if trace <> None || stats then
      Some (Telemetry.create ~clock:monotonic_seconds ())
    else None
  in
  let reduction =
    if no_reduce then Perf.Reduction.none else Perf.Reduction.default
  in
  exit @@ Parallel.Pool.with_pool ~jobs @@ fun pool ->
  (* Busy-time accounting costs two clock reads per chunk, so it is only
     switched on for --trace, keeping --stats output deterministic. *)
  (if trace <> None then
     Option.iter
       (fun tel -> Parallel.Pool.instrument pool (Telemetry.clock tel))
       telemetry);
  let config = { Session.engine; epsilon; reduction; pool; telemetry } in
  (* [--engine windowed] checks a .gcm program on the fly; every other
     engine materialises its reachable space into an explicit model. *)
  let materialise =
    match engine with Perf.Engine.Windowed _ -> false | _ -> true
  in
  let session =
    match Session.load ~materialise ?drift:rate_drift config source with
    | Ok session -> session
    | Error (Session.Unknown_model name) -> unknown_model name
    | Error (Session.Load_error message) -> fail message
  in
  let refuse op =
    Option.iter (fun (r : Session.refusal) -> fail r.Session.message)
      (Session.refusal session op)
  in
  if info || lump then refuse `Inspect;
  if batch_file <> None then refuse `Batch;
  if frontier_fmt <> None then refuse `Frontier;
  (* --lump and --info read the explicit matrix, which the refusals
     above guarantee. *)
  let session =
    match session with
    | Session.Explicit { config; mrm; labeling; init; _ } when lump ->
      let l = Markov.Lumping.compute mrm labeling in
      Printf.printf "lumped: %d states -> %d blocks\n"
        (Array.length l.Markov.Lumping.block_of_state)
        l.Markov.Lumping.n_blocks;
      Session.of_explicit config l.Markov.Lumping.quotient
        l.Markov.Lumping.labeling (Markov.Lumping.lift l init)
    | session -> session
  in
  (match session with
   | Session.Explicit { mrm; labeling; init; _ } when info ->
     print_info mrm labeling init;
     exit 0
   | _ -> ());
  if list_props then begin
    print_string (Session.propositions_text session);
    exit 0
  end;
  let solved = function
    | Ok answer -> answer
    | Error (r : Session.refusal) -> fail r.Session.message
  in
  let rendered query = Format.asprintf "%a" Logic.Ast.pp_query query in
  (* The head of the --batch / --frontier documents and of every --trace
     document. *)
  let header ~mode query =
    [ ("tool", Io.Json.String "csrl-check");
      ("mode", Io.Json.String mode);
      ("engine", Io.Json.String (Session.engine_label session));
      ("jobs", Io.Json.Number (float_of_int jobs)) ]
    @ Option.fold ~none:[] ~some:(fun q -> [ ("query", Io.Json.String (rendered q)) ])
        query
  in
  let with_cache ~mode ?query fg_before fields =
    print_string
      (Io.Json.to_string
         (Io.Json.Object
            (header ~mode query @ fields
            @ [ ("cache", Session.cache_json ~fox_glynn_since:fg_before session) ])));
    print_newline ()
  in
  let fg_before = Numerics.Fox_glynn.cache_counters () in
  let mode, query, code =
    match batch_file, formula_text with
    | Some _, Some _ -> fail "--batch cannot be combined with a positional formula"
    | None, None ->
      fail "no formula given (pass one, or --batch FILE, or --list-propositions)"
    | Some path, None ->
      let entries = parse_batch_file path in
      let answers =
        solved (Session.batch session (List.map snd entries))
      in
      let results =
        List.map2
          (fun (name, query) answer ->
            Io.Json.Object
              ([ ("name", Io.Json.String name);
                 ("query", Io.Json.String (rendered query)) ]
              @ Session.to_json answer))
          entries answers
      in
      with_cache ~mode:"batch" fg_before
        [ ("queries", Io.Json.Number (float_of_int (List.length entries)));
          ("results", Io.Json.List results) ];
      ("batch", None, 0)
    | None, Some text -> begin
        let query =
          match Logic.Parser.query text with
          | query -> query
          | exception Logic.Parser.Parse_error (message, pos) ->
            fail (Printf.sprintf "parse error at position %d: %s" pos message)
        in
        match query with
        | Logic.Ast.Frontier_query _ ->
          let answer = solved (Session.frontier session query) in
          if frontier_fmt = Some "csv" then
            print_string (Session.text session query answer)
          else
            with_cache ~mode:"frontier" ~query fg_before (Session.fields answer);
          ("frontier", Some query, 0)
        | _ when frontier_fmt <> None ->
          fail
            "--frontier needs a frontier query, e.g. 'frontier[20] P>=0.5 ( a \
             U[t<=10][r<=50] b )'"
        | _ ->
          let answer = solved (Session.check session query) in
          print_string (Session.text session query answer);
          ("check", Some query, Session.exit_code answer)
      end
  in
  Option.iter
    (fun tel ->
      Session.record_pool_stats session tel;
      Option.iter (fun path -> Io.Trace.write path (header ~mode query) tel) trace;
      if stats then Io.Trace.print_stats stdout tel)
    telemetry;
  code

open Cmdliner

let model_arg =
  let doc =
    "Built-in model to check (adhoc, adhoc-srn, multiprocessor, cluster), or \
     a path to a .gcm guarded-command program (checked on the fly with \
     --engine windowed, materialised otherwise)."
  in
  Arg.(value & opt string "adhoc" & info [ "m"; "model" ] ~docv:"NAME" ~doc)

let file_arg =
  let doc =
    "Load the model from a .mrm file (explicit) or .gcm file \
     (guarded-command program) instead of a built-in."
  in
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"PATH" ~doc)

let engine_arg =
  let doc =
    "Numerical engine for time- and reward-bounded until: sericola[:eps], \
     erlang[:phases], discretise[:step] or windowed[:eps] (sliding-window \
     truncated uniformisation with a certified error bound; the only \
     engine that checks .gcm models without enumerating their state \
     space)."
  in
  Arg.(value & opt string "sericola" & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc)

let epsilon_arg =
  let doc = "Accuracy of transient analyses (must be in (0,1))." in
  Arg.(value & opt float 1e-9 & info [ "epsilon" ] ~docv:"EPS" ~doc)

let jobs_arg =
  let doc =
    "Run the numerical kernels on $(docv) domains (default 1: the exact \
     sequential code).  Results with $(docv) >= 2 can differ from the \
     sequential run by floating-point rounding only."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let trace_arg =
  let doc =
    "Write a JSON trace of the run to $(docv): convergence counters and \
     gauges of every numerical procedure used (Fox-Glynn truncation \
     points, uniformisation iterations, Sericola's achieved epsilon, \
     ...), timed spans, and pool utilisation."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let stats_arg =
  let doc =
    "Print the run's convergence counters and gauges after the verdict \
     (a deterministic subset of --trace: no timings)."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let list_props_arg =
  let doc = "List the model's atomic propositions and exit." in
  Arg.(value & flag & info [ "l"; "list-propositions" ] ~doc)

let info_arg =
  let doc =
    "Print model statistics (size, reward levels, BSCCs, long-run \
     behaviour) and exit."
  in
  Arg.(value & flag & info [ "i"; "info" ] ~doc)

let lump_arg =
  let doc =
    "Reduce the model by its ordinary-lumpability quotient before checking \
     (states shown are then blocks)."
  in
  Arg.(value & flag & info [ "lump" ] ~doc)

let no_reduce_arg =
  let doc =
    "Disable the automatic quotient-and-prune reduction pipeline (exact \
     lumping and reachability pruning applied after the Theorem 1 \
     reduction).  The pipeline never changes answers — this flag exists \
     for A/B timing and debugging; with it the engines solve the \
     Theorem 1 model directly."
  in
  Arg.(value & flag & info [ "no-reduce" ] ~doc)

let batch_arg =
  let doc =
    "Evaluate a batch of queries from a JSON file ({\"queries\": [...]}, \
     each element a query string or {\"query\": ..., \"name\": ...}) over \
     one shared checking context.  Work common to the queries — Sat-sets, \
     Theorem 1 reductions, solved until-vectors, Fox-Glynn windows — is \
     computed once; answers are bit-identical to single-query runs.  \
     Results are printed as one JSON document with per-cache hit \
     statistics.  Pass $(b,-) to read the JSON document from standard \
     input (for piping without temp files)."
  in
  Arg.(value & opt (some string) None & info [ "b"; "batch" ] ~docv:"FILE" ~doc)

let frontier_arg =
  let doc =
    "Output format for a frontier query ($(b,json) or $(b,csv)).  A \
     frontier query 'frontier[N] P>=p ( phi U[t<=T][r<=R] psi )' sweeps \
     the Pareto frontier {(t, r) : P(phi U[<=t][<=r] psi) >= p} on an \
     N-point time grid by monotonicity-guided bisection over the reward \
     axis, reusing the warm caches across probes; every emitted point is \
     bit-identical to an independent single-query solve of the same \
     bounds.  Frontier queries default to JSON output when this flag is \
     omitted."
  in
  Arg.(value & opt (some string) None & info [ "frontier" ] ~docv:"FORMAT" ~doc)

let rate_drift_arg =
  let doc =
    "Check robustly over an interval-valued model: widen every rate and \
     reward of the loaded model by a relative +/-$(docv)% drift and answer \
     with guaranteed lower/upper envelopes over the whole uncertainty set \
     (three-valued verdicts for P-operator formulas — a state is UNKNOWN \
     when the envelope straddles the probability bound).  $(docv) must lie \
     in [0, 100); 0 gives the zero-width interval model, whose answers are \
     bit-identical to the precise run.  Built-in interval variants are \
     also available directly as models named $(b,<name>-drift[:PCT])."
  in
  Arg.(value & opt (some float) None & info [ "rate-drift" ] ~docv:"PCT" ~doc)

let imrm_arg =
  let doc =
    "Load an interval-valued model from a JSON file ({\"states\": N, \
     \"transitions\": [[src, dst, lo, hi] | [src, dst, rate]], \
     \"rewards\": [[lo, hi] | rate per state], optional \"labels\" and \
     \"init\"}) and check robustly over it.  Cannot be combined with \
     --file or --rate-drift."
  in
  Arg.(value & opt (some string) None & info [ "imrm" ] ~docv:"FILE" ~doc)

let formula_arg =
  let doc =
    "The CSRL formula or query, e.g. 'P>0.5 ( a U[t<=24][r<=600] b )', \
     'P=? ( F[t<=2] down )' or 'frontier[20] P>=0.5 ( a U[t<=24][r<=600] \
     b )'."
  in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FORMULA" ~doc)

let cmd =
  let doc = "model check CSRL performability properties over Markov reward models" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Implements the model checking procedures of Haverkort, Cloth, \
         Hermanns, Katoen & Baier, 'Model Checking Performability \
         Properties' (DSN 2002): unbounded, time-bounded, reward-bounded \
         and time-and-reward-bounded until operators over finite Markov \
         reward models, the latter via a pseudo-Erlang approximation, \
         Tijms-Veldman discretisation or Sericola's occupation-time \
         algorithm." ]
  in
  Cmd.v
    (Cmd.info "csrl-check" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run $ model_arg $ file_arg $ engine_arg $ epsilon_arg $ jobs_arg
      $ trace_arg $ stats_arg $ list_props_arg $ info_arg $ lump_arg
      $ no_reduce_arg $ batch_arg $ frontier_arg $ rate_drift_arg $ imrm_arg
      $ formula_arg)

let () = exit (Cmd.eval cmd)
