(** The harness's side of the wire: spawning [csrl-serve] on a
    Unix-domain socket, closed-loop request driving over one connection,
    and process measurements of the server pid. *)

val now : unit -> float
(** Monotonic seconds. *)

type server

val spawn : exe:string -> socket:string -> executors:int -> server
(** Start [exe --socket socket --executors n --jobs 1].  The socket path
    is relative to the working directory, which the server shares. *)

type conn

val connect : server -> socket:string -> conn
(** Connect, retrying until the server listens; fails when the server
    exits first or does not listen within 30 s. *)

val drive : conn -> Workload.request array -> string array * float array
(** Send the requests one at a time, each after the previous reply has
    arrived (closed loop), and return each reply line and its round trip
    in seconds, indexed like the requests. *)

val cpu_seconds : server -> float
(** User plus system CPU of the server process so far: the sum over its
    threads of [se.sum_exec_runtime] in [/proc/<pid>/task/<tid>/sched]
    (nanosecond digits), or, where the kernel has no such file, the
    clock ticks of [/proc/<pid>/stat]. *)

val peak_rss_mb : server -> float
(** The server's [VmHWM] from [/proc/<pid>/status], in MiB. *)

val shutdown : server -> conn -> unit
(** Send [shutdown], close the connection, and wait for the process to
    exit (killing it after 20 s). *)

val kill_all : unit -> unit
(** Kill and reap every server still running — for the error path. *)
