(** Rendering {!Telemetry} reports: JSON trace documents (the CLI's
    [--trace FILE] and the per-procedure telemetry columns of
    [BENCH_perf.json]) and a human-readable counter dump (the CLI's
    [--stats]).

    The JSON shape is
    [{"counters": {name: int, ...}, "gauges": {name: float, ...},
      "spans": [{"name": ..., "start": ..., "seconds": ...}, ...]}]
    with counters and gauges sorted by name, spans in completion
    order. *)

val to_json : Telemetry.t -> Json.t
(** Snapshot the recorder as a JSON document (see above). *)

val record_pool_stats : Telemetry.t -> Parallel.Pool.t -> unit
(** Publish a pool's utilisation counters as gauges: [pool.size],
    [pool.parallel_runs], [pool.inline_runs], [pool.chunks] and — only
    when busy-time accounting was switched on with
    [Parallel.Pool.instrument] and measured something —
    [pool.busy_seconds].  Call it once, after the solves, before
    {!to_json}. *)

val write : string -> (string * Json.t) list -> Telemetry.t -> unit
(** [write path fields telemetry] writes the [--trace] document of
    every front-end to [path]: one JSON object holding [fields] (tool,
    mode, query, ... — whatever describes the run) followed by
    ["telemetry"] ({!to_json}), then a newline. *)

val print_stats : out_channel -> Telemetry.t -> unit
(** Print the counters and gauges (sorted by name) as an indented
    [telemetry:] block.  Spans are deliberately omitted — everything
    printed is a deterministic function of the computation, so the
    output is stable across runs and machines (the cram tests pin
    it). *)
