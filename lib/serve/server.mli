(** The daemon: a single-threaded event loop over a Unix-domain socket.

    Architecture — one select loop (through the {!Runtime} seam; real
    [Unix.select] by default) owns every socket; the domain pool (inside
    the {!Dispatch.t}) owns every computation:

    + {b read}: drain readable connections into per-connection frame
      decoders; completed frames are parsed and admitted to the bounded
      {!Backlog} (or answered [Overloaded] on the spot when it is full —
      admission control, not disconnection);
    + {b dispatch}: take one batch (at most [batch_cap] requests) and run
      it across the pool via {!Dispatch.handle_batch}.  While the batch
      computes, newly arriving requests accumulate in kernel buffers and
      the backlog — batching emerges from load without timers;
    + {b write}: flush response frames to writable connections,
      tolerating partial writes and peers that disappeared.

    No threads, no clocks, no per-connection state beyond a decoder and
    an output buffer.  Malformed traffic (non-JSON frames, bad
    envelopes) is answered with a structured [Failed] response; only an
    unrecoverable framing violation (negative/oversized length) closes
    the connection, after the error response drains.

    Shutdown: flip the [stop] flag (e.g. from a SIGTERM handler); the
    loop notices within its select timeout (50 ms), closes every
    connection and the listener, and removes the socket file. *)

type config = {
  socket_path : string;
  queue_cap : int;  (** backlog bound; pushes beyond it shed *)
  batch_cap : int;  (** max requests dispatched per cycle *)
  log : string -> unit;  (** daemon lifecycle messages; [ignore] to mute *)
}

val config :
  ?queue_cap:int ->
  ?batch_cap:int ->
  ?log:(string -> unit) ->
  socket_path:string ->
  unit ->
  config
(** Defaults: [queue_cap = 64], [batch_cap = 32], [log = ignore].  Frames
    are capped at the {!Protocol.Frame.Decoder} default of 1 MiB.
    @raise Search_numerics.Search_error.Error on non-positive caps. *)

val run :
  ?runtime:Runtime.t -> config -> dispatch:Dispatch.t -> stop:bool Atomic.t -> unit
(** Bind, serve until [stop] reads [true], tear down.  A stale socket
    file at [socket_path] is replaced.  On return the listener and all
    connections are closed and the socket file is gone, including on
    exceptional exit.  [runtime] (default {!Runtime.default}, real Unix
    sockets) supplies every I/O primitive the loop touches — the
    deterministic simulator passes its fake network here and the same
    loop runs at memory speed under a virtual clock.
    @raise Search_numerics.Search_error.Error with [Io_failure] when the
    socket cannot be bound. *)
