(** The three seeded workloads: which models each one loads, what its
    warm-up sends, and the fixed-length request sequence it measures.

    Everything here is a pure function of the workload, the seed and the
    run length, so a seed always yields the same requests.  The server
    only ever sees the generated wire lines. *)

type kind = P3_cold | Serve_warm | Symbolic_robust

val kinds : (string * kind) list
(** Workload names as given to [--workload]. *)

(** What a request exercises; the harness reports some layer metrics
    per family and checks [Stats] replies structurally (their counters
    count the requests sent before them, and the reference answers each
    distinct request once). *)
type family =
  | Load
  | Adhoc_p3      (** the ad hoc Q3 family, P3 on an explicit model *)
  | Mp_p3         (** the tracked multiprocessor, P3 on an explicit model *)
  | Grid          (** time-bounded until on the [.gcm] grid, windowed *)
  | Drift         (** the Q3 family on the drifted ad hoc model, robust *)
  | Quantile
  | Frontier
  | List
  | Stats

type request = {
  family : family;
  model : string option;  (** the model it is pinned to *)
  line : string;          (** the NDJSON wire line, without newline *)
}

type plan = {
  kind : kind;
  executors : int;        (** [csrl-serve --executors] *)
  setup : request list;
      (** the model loads, then a warm-up that fills first-touch caches
          — what [setup_s] times *)
  blocks : int;
  measured : request array;
      (** the measured sequence: [blocks] equal blocks, each one a
          replica of the workload (one draw from every stratum of every
          bound range, the full request mix), so that every stretch of
          the sequence costs about the same; the harness times each
          block of each pass *)
  pinned : (string * float) list;
      (** warm-up lines whose answer must round to the given value at
          eight decimals *)
}

val passes : int
(** How many times a run sends the measured sequence, each time to a
    freshly started server. *)

val count : kind -> seconds:int -> int
(** The length of the measured sequence of a run of [seconds]: the
    {!passes} together send about as many requests as the server answers
    in that time.  Whole blocks, and the same on every run and every
    commit. *)

val plan : kind -> seed:int -> seconds:int -> plan

val spread_aliases :
  executors:int -> string list -> (string * string) list array
(** [spread_aliases ~executors bases] gives, for every shard [c], one
    alias per base name whose {!Server.Service.shard_of_name} is [c]:
    the first of ["<base>.0"], ["<base>.1"], ... that lands there, so
    that requests drawn alternately from the shards' sets alternate
    between the executors. *)

val q3 : t:float -> r:float -> string
(** The ad hoc Q3 family [P=? ( (call_idle | doze) U[t<=t][r<=r]
    call_initiated )]. *)
