(** In-process reference answers: the same requests run through the
    library's public serving API ({!Server.Service.execute}) on the
    server's default configuration, one executor. *)

type t

val create : unit -> t

type timing = {
  parse : float;   (** [Protocol.of_line], seconds *)
  exec : float;    (** [Service.execute] *)
  render : float;  (** [Io.Json.to_string] of the response *)
}

val total : timing -> float

val answer : t -> string -> Io.Json.t * string * timing
(** The response object, its wire rendering, and where the time went.
    Raises [Failure] on a line the protocol rejects. *)

val number : string list -> Io.Json.t -> float option
(** The number at a path of object keys, e.g. [\["result"; "value"\]]. *)
