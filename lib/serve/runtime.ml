module E = Search_numerics.Search_error

type 'fd ops = {
  equal_fd : 'fd -> 'fd -> bool;
  listen : path:string -> 'fd;
  accept : 'fd -> [ `Conn of 'fd | `Again | `Err of string ];
  read : 'fd -> bytes -> off:int -> len:int -> [ `Data of int | `Eof | `Again | `Err of string ];
  write : 'fd -> string -> off:int -> len:int -> [ `Wrote of int | `Again | `Err of string ];
  select : read:'fd list -> write:'fd list -> timeout:float -> 'fd list * 'fd list;
  close : 'fd -> unit;
  unlink : string -> unit;
  guard_sigpipe : unit -> unit -> unit;
  connect : path:string -> 'fd;
  read_blocking : 'fd -> bytes -> off:int -> len:int -> [ `Data of int | `Eof | `Err of string ];
  write_blocking : 'fd -> string -> off:int -> len:int -> [ `Wrote of int | `Err of string ];
}

type t = T : 'fd ops -> t

(* ------------------------------------------------------------------ *)
(* The production implementation: real Unix-domain sockets.  Non-
   blocking handlers fold EINTR into [`Again] (the caller loops through
   select anyway); blocking handlers retry EINTR internally, preserving
   the old Client behaviour.

   Every handler below is an audited [@real_io] barrier: this record is
   the one place the serve layer touches the real OS, and the escape
   analysis (the lint's escape-realio rule) checks that nothing else
   reachable from the ops seam or the dst fibers does.  [@releases]
   marks the two acquirers whose error paths close the descriptor
   before re-raising (and whose success path transfers ownership to
   the caller). *)

(* Clear [path] for [bind], touching only a socket nothing listens on:
   a probe [connect] tells a live daemon's socket (refused with the DST
   network's "address already in use") from a stale one (ECONNREFUSED,
   unlinked).  A file that is not a socket is never removed. *)
let[@real_io] claim_socket_path path =
  let fail what err = E.raise_ (E.Io_failure { path; what = what ^ Unix.error_message err }) in
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | exception Unix.Unix_error (err, _, _) -> fail "lstat: " err
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
      let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let outcome =
        Fun.protect
          ~finally:(fun () -> try Unix.close probe with Unix.Unix_error _ -> ())
          (fun () ->
            match Unix.connect probe (Unix.ADDR_UNIX path) with
            | () -> `Live
            | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> `Stale
            | exception Unix.Unix_error (err, _, _) -> `Err err)
      in
      match outcome with
      | `Live ->
          E.raise_ (E.Io_failure { path; what = "bind: address already in use" })
      | `Err err -> fail "connect: " err
      | `Stale -> (
          try Unix.unlink path with
          | Unix.Unix_error (Unix.ENOENT, _, _) -> ()
          | Unix.Unix_error (err, _, _) -> fail "unlink: " err))
  | _ ->
      E.invalid ~where:"listen" (path ^ " exists and is not a socket")

let[@real_io] [@releases] unix_listen ~path =
  claim_socket_path path;
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 128;
    Unix.set_nonblock fd
  with
  | () -> fd
  | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      E.raise_
        (E.Io_failure { path; what = "bind: " ^ Unix.error_message err })

let[@real_io] [@releases] unix_accept fd =
  match Unix.accept ~cloexec:true fd with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      `Again
  | exception Unix.Unix_error (err, _, _) -> `Err (Unix.error_message err)
  | conn, _ ->
      Unix.set_nonblock conn;
      `Conn conn

let[@real_io] unix_read fd buf ~off ~len =
  match Unix.read fd buf off len with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      `Again
  | exception Unix.Unix_error (err, _, _) -> `Err (Unix.error_message err)
  | 0 -> `Eof
  | n -> `Data n

let[@real_io] unix_write fd s ~off ~len =
  match Unix.write_substring fd s off len with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      `Again
  | exception Unix.Unix_error (err, _, _) -> `Err (Unix.error_message err)
  | n -> `Wrote n

let[@real_io] unix_select ~read ~write ~timeout =
  match Unix.select read write [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
  | readable, writable, _ -> (readable, writable)

let[@real_io] unix_close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let[@real_io] unix_unlink path =
  try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()

let[@real_io] unix_guard_sigpipe () =
  let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  fun () -> ignore (Sys.signal Sys.sigpipe prev)

let[@real_io] [@releases] unix_connect ~path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      E.raise_
        (E.Io_failure { path; what = "connect: " ^ Unix.error_message err })

let[@real_io] rec unix_read_blocking fd buf ~off ~len =
  match Unix.read fd buf off len with
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      unix_read_blocking fd buf ~off ~len
  | exception Unix.Unix_error (err, _, _) -> `Err (Unix.error_message err)
  | 0 -> `Eof
  | n -> `Data n

let[@real_io] rec unix_write_blocking fd s ~off ~len =
  match Unix.write_substring fd s off len with
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      unix_write_blocking fd s ~off ~len
  | exception Unix.Unix_error (err, _, _) -> `Err (Unix.error_message err)
  | n -> `Wrote n

let unix =
  {
    (* Unix.file_descr is an abstract handle with no Int-style equal;
       structural equality on it is the documented comparison (it is a
       plain int under the hood) — see the lint.allow entry. *)
    equal_fd = ( = );
    listen = unix_listen;
    accept = unix_accept;
    read = unix_read;
    write = unix_write;
    select = unix_select;
    close = unix_close;
    unlink = unix_unlink;
    guard_sigpipe = unix_guard_sigpipe;
    connect = unix_connect;
    read_blocking = unix_read_blocking;
    write_blocking = unix_write_blocking;
  }

let default = T unix
