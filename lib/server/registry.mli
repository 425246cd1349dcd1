(** The daemon's model registry: named {!Session.t}s, each behind its
    own lock.

    A session carries all of a model's warm state — for explicit and
    robust models the prepared {!Checker.t} and its {!Checker.memo}
    (Sat-sets, path vectors, Theorem 1 and reduction caches, envelopes),
    for a [.gcm] program the interned state space and per-query memo of
    its {!Perf.Symbolic.t}.  (The Fox–Glynn window memo is process-wide,
    mutex-protected, and needs no per-entry state.)

    Concurrency: the table itself is guarded by one mutex whose critical
    sections are tiny (hash lookups), so lookups on different models
    never wait on each other's solves.  Each entry additionally carries
    its own lock, taken via {!exclusively} around a solve, which is what
    protects the session's warm caches when entries are used from
    several executor domains.  Under the per-model sharding of
    {!Service.serve_channels} the lock is uncontended by construction —
    same model, same shard — and warm-cache hits on {e different} models
    never serialise on anything.

    Eviction is by unlinking: {!evict} removes the name from the table,
    but an entry already resolved by an in-flight request stays valid —
    models, labelings and memos are never mutated destructively, so the
    request completes against the state it resolved and the entry is
    reclaimed by the GC afterwards.  Later requests on the evicted name
    get [None] from {!find}. *)

type payload = Session.t =
  | Explicit of {
      config : Session.config;
      mrm : Markov.Mrm.t;
      labeling : Markov.Labeling.t;
      init : Linalg.Vec.t;
      ctx : Checker.t;
      memo : Checker.memo;
    }
  | Symbolic of { config : Session.config; path : string; sym : Perf.Symbolic.t }
  | Robust of {
      config : Session.config;
      imrm : Robust.Imrm.t;
      labeling : Markov.Labeling.t;
      init : Linalg.Vec.t;
      ctx : Checker.t;
      memo : Checker.memo;
    }
(** The session an entry serves, re-exported so callers can look inside
    without naming {!Session}. *)

type entry = {
  name : string;
  payload : payload;
  entry_lock : Mutex.t;
      (** guards the session's warm caches during a solve; take it via
          {!exclusively} *)
}

type t

val create : Session.config -> t
(** Every session the registry loads is prepared on this configuration
    (the server's engine, epsilon, reduction, pool and telemetry). *)

val load :
  t -> name:string -> ?drift:float -> Session.source ->
  (entry, Session.load_error) result
(** {!Session.load} the source and register it under [name], replacing
    any existing entry (fresh warm state).  A built-in loaded under
    another name is an alias with its own independent caches; each
    [.gcm] load gets a fresh, independent warm space. *)

val find : t -> string -> entry option

val exclusively : entry -> (unit -> 'a) -> 'a
(** Run [f] holding the entry's lock — every solve against the entry's
    warm caches goes through here. *)

val evict : t -> string -> bool
(** [true] when the name was registered. *)

val entries : t -> entry list
(** Sorted by name. *)
