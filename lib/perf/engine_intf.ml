(** The first-class engine interface.

    Every solver backend — the three computational procedures of
    Section 4, the sliding-window symbolic engine, and the robust
    envelope engine over imprecise MRMs ([lib/robust]) — is packaged as
    an {!t} value: an identifier and a [run] closure threading the
    house conventions ([?pool] for domain pools, [?telemetry] for
    counters/spans, [?cancel] for cooperative deadlines).  Call sites dispatch on the instance record instead of
    pattern-matching engine variants, so precise and robust engines sit
    behind one signature and new backends plug in without touching the
    checker, the batch runner, the server, or the CLIs.

    The type is polymorphic in the model and the answer: precise engines
    are [(Problem.t, float)] instances, the robust envelope engine is an
    [(Imrm problem, bounds) ] instance.  The answer type is what keeps
    a robust engine from being passed where a point answer is required.
    Which operations a loaded model supports is decided by its kind
    ([Session.refusal]), not by engine flags. *)

type ('model, 'answer) t = {
  id : string;
      (** Stable human-readable identifier, e.g. ["occupation-time"] or
          ["robust-envelope"]; used in telemetry span names and CLI
          output. *)
  run :
    ?pool:Parallel.Pool.t ->
    ?telemetry:Telemetry.t ->
    ?cancel:Numerics.Cancel.t ->
    'model ->
    'answer;
}

let run ?pool ?telemetry ?cancel t model = t.run ?pool ?telemetry ?cancel model
