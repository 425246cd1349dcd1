let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

type server = { pid : int; mutable alive : bool }

let live : server list ref = ref []

let spawn ~exe ~socket ~executors =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv =
    [| exe; "--socket"; socket; "--executors"; string_of_int executors;
       "--jobs"; "1" |]
  in
  let pid = Unix.create_process exe argv devnull devnull Unix.stderr in
  Unix.close devnull;
  let s = { pid; alive = true } in
  live := s :: !live;
  s

let reap s =
  if s.alive then
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ -> ()
    | _ -> s.alive <- false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> s.alive <- false

type conn = { fd : Unix.file_descr; pending : Buffer.t; chunk : Bytes.t }

let connect server ~socket =
  let deadline = now () +. 30.0 in
  let rec attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> { fd; pending = Buffer.create 4096; chunk = Bytes.create 65536 }
    | exception Unix.Unix_error
        ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
      Unix.close fd;
      reap server;
      if not server.alive then failwith "csrl-serve exited before listening";
      if now () > deadline then failwith "csrl-serve did not listen within 30 s";
      Unix.sleepf 0.0005;
      attempt ()
  in
  attempt ()

let write_line c line =
  let data = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length data then
      go (off + Unix.write c.fd data off (Bytes.length data - off))
  in
  go 0

(* Read what is available; return a complete line once one has arrived. *)
let read_available c =
  let got = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if got = 0 then failwith "csrl-serve closed the connection";
  Buffer.add_subbytes c.pending c.chunk 0 got;
  let text = Buffer.contents c.pending in
  match String.index_opt text '\n' with
  | None -> None
  | Some i ->
    Buffer.clear c.pending;
    Buffer.add_string c.pending
      (String.sub text (i + 1) (String.length text - i - 1));
    Some (String.sub text 0 i)

let rec select_retry fd timeout =
  match Unix.select [ fd ] [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_retry fd timeout

let rec await c ~timeout =
  match select_retry c.fd timeout with
  | [] -> None
  | _ -> ( match read_available c with None -> await c ~timeout | some -> some)

let drive c (requests : Workload.request array) =
  let n = Array.length requests in
  let replies = Array.make n "" and latency = Array.make n 0.0 in
  Array.iteri
    (fun i (r : Workload.request) ->
      let sent = now () in
      write_line c r.Workload.line;
      match await c ~timeout:120.0 with
      | None -> failwith "no reply from csrl-serve within 120 s"
      | Some line ->
        latency.(i) <- now () -. sent;
        replies.(i) <- line)
    requests;
  (replies, latency)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Fields 14 and 15 of /proc/<pid>/stat are utime and stime in clock
   ticks; the comm field may hold spaces, so split after its ')'.  Linux
   reports these in USER_HZ, which is 100 on every mainstream build. *)
let cpu_ticks s =
  let text = read_file (Printf.sprintf "/proc/%d/stat" s.pid) in
  let rest = String.index_from text (String.rindex text ')') ' ' in
  let fields =
    String.split_on_char ' '
      (String.trim (String.sub text rest (String.length text - rest)))
    |> Array.of_list
  in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.0

(* se.sum_exec_runtime of /proc/<pid>/task/<tid>/sched is a thread's CPU
   time in milliseconds with nanosecond digits; the server's threads live
   as long as it does, so their sum is the process's CPU time. *)
let sum_exec_runtime path =
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"se.sum_exec_runtime" l)
      (String.split_on_char '\n' (read_file path))
  in
  let colon = String.index line ':' in
  float_of_string
    (String.trim (String.sub line (colon + 1) (String.length line - colon - 1)))
  /. 1e3

(* Kernels built without scheduler debugging have no sched files; the
   clock ticks of /proc/<pid>/stat are then the best there is. *)
let has_sched = lazy (Sys.file_exists "/proc/self/sched")

let cpu_seconds s =
  if Lazy.force has_sched then
    let dir = Printf.sprintf "/proc/%d/task" s.pid in
    Array.fold_left
      (fun acc tid -> acc +. sum_exec_runtime (Filename.concat dir tid ^ "/sched"))
      0.0 (Sys.readdir dir)
  else cpu_ticks s

let peak_rss_mb s =
  let text = read_file (Printf.sprintf "/proc/%d/status" s.pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' text)
  in
  Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.0)

let wait_exit s ~within =
  let deadline = now () +. within in
  let rec poll () =
    reap s;
    if s.alive && now () < deadline then (Unix.sleepf 0.002; poll ())
  in
  poll ();
  if s.alive then begin
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
    s.alive <- false
  end;
  live := List.filter (fun x -> x != s) !live

let shutdown s c =
  (try
     write_line c {|{"kind":"shutdown"}|};
     ignore (await c ~timeout:20.0)
   with Failure _ | Unix.Unix_error _ -> ());
  Unix.close c.fd;
  wait_exit s ~within:20.0

let kill_all () = List.iter (fun s -> wait_exit s ~within:0.0) !live
