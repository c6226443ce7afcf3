(* Daemon processes: spawn, wait until the first [stats] request is
   answered, read peak memory, stop. *)

module P = Search_serve.Protocol
module E = Search_numerics.Search_error

type t = { pid : int; socket : string; setup_s : float }

let fail fmt = Printf.ksprintf failwith fmt

(* One [stats] request on a fresh connection. *)
let stats ~socket ~id =
  match
    Search_serve.Client.with_client ~socket_path:socket (fun c ->
        snd (Search_serve.Client.call c ~id P.Stats))
  with
  | P.Stats_ok s -> s
  | _ -> fail "stats request not answered with stats"

(* SIGTERM, then SIGKILL if the daemon has not exited within 10 s; waits
   for it either way. *)
let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        snd (Unix.waitpid [] pid)
    | _, st -> st
  in
  wait ()

(* Spawn [argv] and time it until the first answered [stats] request on
   [socket]; the daemon is killed if it is not ready within 30 s. *)
let spawn ~argv ~socket ~log =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let t0 = Unix.gettimeofday () in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close logfd) @@ fun () ->
    Unix.create_process argv.(0) argv Unix.stdin logfd logfd
  in
  let rec ready tries =
    match stats ~socket ~id:0 with
    | _ -> Unix.gettimeofday () -. t0
    | exception (E.Error (E.Io_failure _) as e) ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> fail "daemon %s exited during start-up (see %s)" argv.(0) log);
        if tries > 60_000 then begin
          ignore (stop pid);
          raise e
        end;
        Unix.sleepf 0.0005;
        ready (tries + 1)
  in
  let setup_s = ready 0 in
  { pid; socket; setup_s }

(* Peak resident set of [pid] in MB (VmHWM). *)
let vmhwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | exception End_of_file -> fail "no VmHWM in %s" path
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> go ()
  in
  go ()

(* CPU seconds [pid] (0 = this process) has run so far, summed over its
   threads, from the scheduler's nanosecond counters. *)
let cpu_s pid =
  let dir = Printf.sprintf "/proc/%s/task" (if pid = 0 then "self" else string_of_int pid) in
  Array.fold_left
    (fun acc tid ->
      match open_in (Filename.concat (Filename.concat dir tid) "schedstat") with
      | exception Sys_error _ -> acc (* the thread has exited *)
      | ic ->
          let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
          acc +. (Scanf.sscanf line "%f" Fun.id /. 1e9))
    0. (Sys.readdir dir)
