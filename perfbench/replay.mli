(** The traced pass: the run's requests replayed in-process, with a span
    recorded around every call into a layer's public functions.

    Check requests are composed from the layers the serving path runs —
    [Protocol.of_line], [Logic.Parser.query], [Checker.sat], the
    Theorem 1 and reduction caches of [Perf.Batch] with the engine's
    solve callback wrapped, [Perf.Symbolic.eval] for [.gcm] models and
    [Checker.eval_query] on robust contexts — and every composed answer
    is compared bit for bit with the reference.  Other requests run
    whole through [Service.execute].  Spans stay in memory; the layer
    metrics are computed from them when the pass ends. *)

type result = {
  metrics : (string * string * float) list;
      (** per-layer metric name, unit, value *)
  mismatches : int;  (** composed answers that differ from the reference *)
}

type t

val create : Workload.plan -> expected:(string -> Io.Json.t) -> t
(** A fresh in-process service with the plan's set-up replayed through
    the traced path, and Theorem 1 and the reduction pipeline timed on
    their own for every (model, Phi, Psi) the plan checks. *)

val request : t -> int -> Workload.request -> unit
(** Replay the [i]-th measured request, traced.  [expected] must know
    its reference answer. *)

val finish : t -> untraced:Oracle.timing array -> result
(** The layer metrics once every measured request has been replayed;
    [untraced] holds each one's untraced in-process timing, for the
    overhead ratio and the unattributed time. *)
