(** Blocking client for the serve daemon.

    The simple synchronous interface: connect, {!call} one request at a
    time (or pipeline with {!send} / {!recv}), close.  Transport and
    protocol failures raise {!Search_numerics.Search_error.Error} with an
    [Io_failure] / [Invalid_input] payload — the same taxonomy the
    daemon itself speaks.  The load generator does not use this module
    (it multiplexes hundreds of connections on a select loop); tests and
    scripts do. *)

type t

val connect : ?runtime:Runtime.t -> socket_path:string -> unit -> t
(** [runtime] defaults to {!Runtime.default} (real Unix sockets); the
    deterministic simulator passes its fake network.
    @raise Search_numerics.Search_error.Error with [Io_failure] when the
    socket cannot be reached. *)

val send : t -> id:int -> Protocol.request -> unit
(** Write one framed request, handling partial writes. *)

val recv : t -> int * Protocol.response
(** Block until the next complete response frame; returns the echoed id
    with the decoded response. *)

val call : t -> id:int -> Protocol.request -> int * Protocol.response
(** [send] then [recv]. *)

val close : t -> unit

val with_client :
  ?runtime:Runtime.t -> socket_path:string -> (t -> 'a) -> 'a
(** Connect, run, close (also on exception). *)
