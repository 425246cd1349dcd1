(** An in-memory span recorder for the traced pass, and the self-time
    arithmetic over its layer tree.

    A span is one timed call into a layer: a name, a start and end stamp
    from the recorder's clock, the span that was open when it started
    (its parent) and the request it belongs to.  Spans stay in memory
    until the run ends. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  request : int;   (** the request id; [-1] outside any request *)
  start : float;   (** seconds *)
  stop : float;
}

type t

val create : clock:(unit -> float) -> t

val set_request : t -> int -> unit
(** Tag spans opened from now on with this request id. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Run [f] inside a span nested under the innermost open one.  The span
    is recorded even when [f] raises. *)

val spans : t -> span list
(** Every recorded span, in start order. *)

val self_times : span list -> (span * float) list
(** Each span with its self time: its duration minus the part of its
    interval covered by the union of its children's intervals (children
    are clipped to the parent, and overlapping children count once). *)
