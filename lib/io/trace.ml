let to_json telemetry =
  let report = Telemetry.report telemetry in
  let counters =
    List.map
      (fun (name, v) -> (name, Json.Number (float_of_int v)))
      report.Telemetry.counters
  in
  let gauges =
    List.map
      (fun (name, v) -> (name, Json.Number v))
      report.Telemetry.gauges
  in
  let spans =
    List.map
      (fun (s : Telemetry.span) ->
        Json.Object
          [ ("name", Json.String s.Telemetry.span_name);
            ("start", Json.Number s.Telemetry.start);
            ("seconds", Json.Number s.Telemetry.seconds) ])
      report.Telemetry.spans
  in
  Json.Object
    [ ("counters", Json.Object counters);
      ("gauges", Json.Object gauges);
      ("spans", Json.List spans) ]

let record_pool_stats telemetry pool =
  let s = Parallel.Pool.stats pool in
  let tel = Some telemetry in
  Telemetry.record tel "pool.size" (float_of_int s.Parallel.Pool.pool_size);
  Telemetry.record tel "pool.parallel_runs"
    (float_of_int s.Parallel.Pool.parallel_runs);
  Telemetry.record tel "pool.inline_runs"
    (float_of_int s.Parallel.Pool.inline_runs);
  Telemetry.record tel "pool.chunks" (float_of_int s.Parallel.Pool.chunks);
  (* Busy time is wall-clock and thus non-deterministic; it only appears
     when instrumentation was on and measured something, so the
     counters-only [--stats] output stays reproducible. *)
  if s.Parallel.Pool.busy_seconds > 0.0 then
    Telemetry.record tel "pool.busy_seconds" s.Parallel.Pool.busy_seconds

let write path fields telemetry =
  let document = Json.Object (fields @ [ ("telemetry", to_json telemetry) ]) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string document);
      output_char oc '\n')

let print_stats oc telemetry =
  let report = Telemetry.report telemetry in
  Printf.fprintf oc "telemetry:\n";
  List.iter
    (fun (name, v) -> Printf.fprintf oc "  %s = %d\n" name v)
    report.Telemetry.counters;
  List.iter
    (fun (name, v) -> Printf.fprintf oc "  %s = %g\n" name v)
    report.Telemetry.gauges
