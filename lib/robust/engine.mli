(** The robust envelope engine as a first-class {!Perf.Engine_intf}
    instance.

    Where the precise engines are [(Problem.t, float)] instances, the
    robust engine consumes an until problem over an {!Imrm.t} and
    answers a per-state {!Envelope.result} — same record shape, same
    [?pool]/[?telemetry]/[?cancel] threading.  The checker's robust
    contexts, the serving registry's interval entries and the bench
    harness all dispatch through this instance. *)

type problem = {
  imrm : Imrm.t;
  phi_must : bool array;
  phi_may : bool array;
  psi_must : bool array;
  psi_may : bool array;
  time_bound : float;
  reward_bound : float option;
}

val make :
  ?engine:Perf.Engine.spec ->
  ?reduction:Perf.Reduction.config ->
  epsilon:float ->
  unit ->
  (problem, Envelope.result) Perf.Engine_intf.t
(** [engine] and [reduction] configure the precise code path that
    zero-width models delegate to (see {!Envelope.until}); [epsilon] is
    the accuracy of the Fox–Glynn windows and the envelope safety
    margin.  The instance id is ["robust-envelope"] and [run] wraps each
    solve in an [engine.robust-envelope] telemetry span, mirroring the
    precise instances. *)
