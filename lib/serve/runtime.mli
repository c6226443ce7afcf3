(** The I/O seam between the daemon and the operating system.

    {!Server.run} and {!Client.connect} are written against an ['fd ops]
    record instead of calling [Unix] directly, so the same select loop,
    framing, admission control and dispatch path run unchanged on real
    Unix-domain sockets (the {!unix} implementation, the default
    everywhere) or inside the deterministic simulator's fake network
    ([Search_dst.Net]).  Production binaries never pass a runtime and
    never change behaviour.

    Contract for implementations:

    - [listen ~path] binds a listening endpoint at [path].  It owns only
      its own socket: a stale socket (nothing accepts on it) is
      replaced; a live one raises [Search_error.Error] ([Io_failure]
      "bind: address already in use"); anything else at [path] raises
      [Invalid_input] and is left untouched.  Other bind failures raise
      [Io_failure].  [path] names the endpoint only once it accepts: a
      [connect] that finds the path is not refused.  [accept] on its
      result never blocks: [`Again] when no connection is pending.
    - [read]/[write] are the non-blocking handlers the event loop uses:
      [`Again] means "would block, try after select"; [`Err] means the
      transport failed and the connection must be culled; [read] answers
      [`Eof] when the peer closed its write side.  Partial reads and
      writes are expected; callers must loop.
    - [select ~read ~write ~timeout] blocks until some watched endpoint
      is ready or [timeout] (seconds) elapses, answering the ready
      subsets in input order.  A simulated implementation suspends the
      calling fiber instead of blocking a thread.
    - [connect]/[read_blocking]/[write_blocking] are the blocking client
      side; [`Again] never escapes them.
    - [close] and [unlink] swallow errors (teardown paths call them
      unconditionally).
    - [guard_sigpipe ()] installs whatever protection writing to a
      vanished peer needs and answers the undo function ([SIG_IGN] on
      Unix; a no-op in the simulator). *)

type 'fd ops = {
  equal_fd : 'fd -> 'fd -> bool;
  listen : path:string -> 'fd;
  accept : 'fd -> [ `Conn of 'fd | `Again | `Err of string ];
  read :
    'fd -> bytes -> off:int -> len:int -> [ `Data of int | `Eof | `Again | `Err of string ];
  write :
    'fd -> string -> off:int -> len:int -> [ `Wrote of int | `Again | `Err of string ];
  select : read:'fd list -> write:'fd list -> timeout:float -> 'fd list * 'fd list;
  close : 'fd -> unit;
  unlink : string -> unit;
  guard_sigpipe : unit -> unit -> unit;
  connect : path:string -> 'fd;
  read_blocking :
    'fd -> bytes -> off:int -> len:int -> [ `Data of int | `Eof | `Err of string ];
  write_blocking :
    'fd -> string -> off:int -> len:int -> [ `Wrote of int | `Err of string ];
}

type t = T : 'fd ops -> t  (** an implementation with its handle type packed *)

val unix : Unix.file_descr ops
(** Real Unix-domain sockets; accepted and listening fds are set
    non-blocking, EINTR is retried or folded into [`Again]. *)

val default : t
(** [T unix]. *)
