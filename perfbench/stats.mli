(** Order statistics over float samples. *)

val percentile : float array -> float -> float
(** [percentile samples p] for [p] in [\[0, 100\]], interpolating
    linearly between the two closest ranks.  Raises [Invalid_argument]
    on an empty array or a rank outside [\[0, 100\]]. *)

val median : float array -> float

val mean : float array -> float
(** [0.] on an empty array. *)

val sum : float array -> float

val ratio : int -> int -> float
(** [ratio num den]; [0.] when [den = 0]. *)
