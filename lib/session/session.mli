(** One loaded model together with everything that answers queries on
    it — the single model abstraction behind [csrl-check], its [--batch]
    mode and the [csrl-serve] registry.

    A session is one of three kinds: an {e explicit} MRM with a prepared
    {!Checker.t} and its warm {!Checker.memo}; a {e symbolic} [.gcm]
    program checked on the fly by the windowed engine
    ({!Perf.Symbolic}); or a {e robust} interval-valued model with a
    robust checker context.  Every front-end goes through the same four
    steps: {!load} resolves the source, {!check} / {!batch} /
    {!quantile} / {!frontier} answer or refuse, and {!to_json} /
    {!text} render the answer.  Which operation a kind refuses is
    decided in one place ({!refusal}), and every solver failure comes
    back as a {!refusal} value instead of an exception.

    Answers are bit-identical to the underlying checker calls: a
    session only routes queries, it never changes a computed value. *)

type config = {
  engine : Perf.Engine.spec;
  epsilon : float;  (** transient accuracy; the windowed fallback *)
  reduction : Perf.Reduction.config;
  pool : Parallel.Pool.t;
      (** kernel pool of explicit and robust solves; a batch spreads
          its queries across it instead *)
  telemetry : Telemetry.t option;
}

val engine_of_string : epsilon:float -> string -> (Perf.Engine.spec, string) result
(** {!Perf.Engine.of_string}, plus the accuracy rule of every front-end:
    a bare [windowed] runs at [epsilon] (the [--epsilon] flag), while
    [windowed:EPS] overrides it. *)

type t =
  | Explicit of {
      config : config;
      mrm : Markov.Mrm.t;
      labeling : Markov.Labeling.t;
      init : Linalg.Vec.t;
      ctx : Checker.t;
      memo : Checker.memo;  (** warm Sat-set, path and Theorem 1 caches *)
    }
  | Symbolic of {
      config : config;
      path : string;  (** the [.gcm] file *)
      sym : Perf.Symbolic.t;  (** warm interned space + query memo *)
    }
  | Robust of {
      config : config;
      imrm : Robust.Imrm.t;
      labeling : Markov.Labeling.t;
      init : Linalg.Vec.t;
      ctx : Checker.t;  (** a {!Checker.make_robust} context *)
      memo : Checker.memo;  (** warm caches incl. envelopes *)
    }

(** {1 Loading} *)

type source =
  | Builtin of string
      (** a {!Models.Builtin} name, or ["<name>-drift[:PCT]"] for its
          interval variant *)
  | File of string  (** a [.gcm] program, or any other path as [.mrm] *)
  | Imrm of string  (** an interval-model JSON file ({!Robust.Imrm_io}) *)

type load_error =
  | Unknown_model of string  (** no built-in of that name *)
  | Load_error of string
      (** one line: [path:line: message] for [.mrm], [path:line:col:
          message] for [.gcm], or what went wrong widening the model *)

val load :
  ?materialise:bool -> ?drift:float -> config -> source -> (t, load_error) result
(** Resolve a source once, for every front-end.  [drift] (a percentage
    in [\[0, 100)]) widens an explicit model into a robust one; it is an
    error on [.gcm] programs, interval files and [-drift] names.
    [.gcm] programs load as symbolic sessions unless [materialise]
    (default [false]) asks for the explicit twin — what [csrl-check]
    does under every engine but [windowed]. *)

val load_error_message : load_error -> string

val of_explicit : config -> Markov.Mrm.t -> Markov.Labeling.t -> Linalg.Vec.t -> t
(** A session over an explicit model already in memory, with fresh warm
    caches. *)

val n_states : t -> int
(** States of the model — for symbolic sessions, the states interned so
    far (it grows as queries explore). *)

(** {1 Answering} *)

type refusal = {
  code : string;
      (** the protocol error code: [unsupported], [bad_request],
          [deadline_exceeded], [unknown_proposition],
          [model_runtime_error], [invalid_argument] or [internal] *)
  message : string;
}

type operation = [ `Batch | `Quantile | `Frontier | `Inspect ]
(** The operations some model kinds refuse.  [`Inspect] is anything
    that needs the explicit matrix itself ([csrl-check --info],
    [--lump]). *)

val refusal : t -> operation -> refusal option
(** The one refusal rule: explicit sessions accept everything, robust
    ones accept batches but refuse point-probability operations
    (quantiles, frontiers, inspection), symbolic ones refuse all four. *)

type frontier = {
  target : float;  (** the probability threshold [p] *)
  time_bound : float;  (** [T] from [\[t<=T\]] — the grid's right edge *)
  reward_bound : float;  (** [R] from [\[r<=R\]] — the search ceiling *)
  grid : int;  (** requested time-grid resolution *)
  tolerance : float;  (** reward-axis bisection tolerance *)
  points : Perf.Frontier.point list;  (** the staircase *)
  evaluations : int;  (** until solves across the sweep *)
}

type answer =
  | Verdict of { verdict : Checker.verdict; init : Linalg.Vec.t }
      (** explicit and robust sessions *)
  | Certified of Perf.Symbolic.outcome  (** symbolic sessions *)
  | Frontier of frontier
  | Quantile of Perf.Frontier.outcome

val check : ?cancel:Numerics.Cancel.t -> t -> Logic.Ast.query -> (answer, refusal) result
(** Evaluate one query against the session's warm caches.  [cancel]
    aborts the solve at the next kernel checkpoint (a
    [deadline_exceeded] refusal) without poisoning any cache. *)

val batch : t -> Logic.Ast.query list -> (answer list, refusal) result
(** Evaluate a list of queries over the session's memo, in order.  Work
    the queries share — Sat-sets, Theorem 1 reductions, solved until
    vectors, Fox–Glynn windows — is done once.  Plain queries run first,
    dispatched across [config.pool] one whole query per chunk with
    their kernels forced onto the sequential path, so each answer is
    bit-identical to a single-query {!check}; [frontier] entries then
    sweep sequentially over the same memo.  With telemetry, each query
    records into a private recorder rolled up afterwards, plus
    [batch.queries] and [batch.<cache>.{lookups,hits,misses}] for every
    memo cache and the Fox–Glynn window cache (as a delta over the
    run). *)

val quantile :
  ?cancel:Numerics.Cancel.t -> t -> variable:[ `Time | `Reward ] ->
  target:float -> hi:float -> tolerance:float -> Logic.Ast.query ->
  (answer, refusal) result
(** The least bound in [(0, hi]] on [variable] of a [P=? (phi U psi)]
    query reaching probability [target], by {!Perf.Frontier.probe}
    bisection; every probe is an ordinary solve on the warm memo. *)

val frontier :
  ?cancel:Numerics.Cancel.t -> ?tolerance:float -> t -> Logic.Ast.query ->
  (answer, refusal) result
(** Sweep a [frontier[N] P>=p (phi U[t<=T][r<=R] psi)] query with
    {!Perf.Frontier.sweep} ([tolerance] defaults to [1e-6]).  Each
    point is bit-identical to a cold check of its bounds.  Records
    [frontier.grid] / [frontier.points] / [frontier.evaluations]. *)

(** {1 Rendering} *)

val fields : ?evaluations_last:bool -> answer -> (string * Io.Json.t) list
(** The answer's JSON fields, without ["kind"].  Verdicts report the
    initial-distribution summary and the per-state vector, symbolic
    answers their certified interval and window statistics.  Frontier
    fields end with ["evaluations"] then ["points"], or the other way
    round with [evaluations_last] (the server's wire order). *)

val to_json : answer -> (string * Io.Json.t) list
(** The answer's kind — boolean, numeric, three-valued, interval,
    frontier or quantile — followed by its {!fields}: the result object
    shared by [--batch] and [csrl-serve] checks. *)

val text : t -> Logic.Ast.query -> answer -> string
(** What [csrl-check] prints: the query/engine header and the per-state
    table of a verdict, the certified interval of a symbolic answer,
    the CSV staircase of a frontier. *)

val exit_code : answer -> int
(** [csrl-check]'s exit status: [1] when the initial distribution
    certainly violates a state formula, [3] when a three-valued verdict
    is UNKNOWN there, [0] otherwise. *)

val engine_label : t -> string
(** The engine as the text header and [--trace] documents name it, e.g.
    [robust-envelope over occupation-time(eps=1e-09)]. *)

val propositions_text : t -> string
(** The [--list-propositions] listing. *)

val summary_json : t -> (string * Io.Json.t) list
(** The shape of the model, as the server's [load] response reports it. *)

val counter_json : Perf.Batch.counters -> Io.Json.t

val fox_glynn_counters : ?since:Numerics.Fox_glynn.cache_counters -> unit -> Perf.Batch.counters
(** The process-wide Fox–Glynn window cache counters, as a delta over
    [since] when given. *)

val cache_counters :
  ?fox_glynn_since:Numerics.Fox_glynn.cache_counters -> t ->
  (string * Perf.Batch.counters) list
(** The hit counters of the session's memo caches ([[]] for symbolic
    sessions), plus the Fox–Glynn delta since [fox_glynn_since]. *)

val cache_json : ?fox_glynn_since:Numerics.Fox_glynn.cache_counters -> t -> Io.Json.t
(** Per-cache hit statistics of the session's memo (the query-memo size
    for symbolic sessions), plus the Fox–Glynn delta when asked. *)

val record_pool_stats : t -> Telemetry.t -> unit
(** {!Io.Trace.record_pool_stats} for the kernel pool; symbolic sessions
    run no pooled kernels and record nothing. *)
