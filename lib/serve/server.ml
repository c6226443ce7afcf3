module E = Search_numerics.Search_error

type config = {
  socket_path : string;
  queue_cap : int;
  batch_cap : int;
  log : string -> unit;
}

let config ?(queue_cap = 64) ?(batch_cap = 32) ?(log = ignore) ~socket_path ()
    =
  if queue_cap < 1 then E.invalid ~where:"Server.config" "need queue_cap >= 1";
  if batch_cap < 1 then E.invalid ~where:"Server.config" "need batch_cap >= 1";
  { socket_path; queue_cap; batch_cap; log }

type 'fd conn = {
  fd : 'fd;
  decoder : Protocol.Frame.Decoder.t;
  out : Buffer.t;  (** encoded frames awaiting the peer *)
  mutable sent : int;  (** prefix of [out] already written *)
  mutable inflight : int;  (** admitted requests not yet answered *)
  mutable eof : bool;  (** peer closed its write side *)
  mutable closing : bool;  (** framing violation: close once [out] drains *)
  mutable dead : bool;  (** transport failed: close now *)
}

let make_conn fd =
  {
    fd;
    decoder = Protocol.Frame.Decoder.create ();
    out = Buffer.create 512;
    sent = 0;
    inflight = 0;
    eof = false;
    closing = false;
    dead = false;
  }

let respond c ~id resp =
  Buffer.add_string c.out (Protocol.Frame.encode (Protocol.encode_response ~id resp))

let protocol_error ~where what =
  Protocol.Failed (E.Invalid_input { where; what })

(* Parse every completed frame buffered on [c]: valid requests are
   admitted (or shed with an immediate [Overloaded]); undecodable ones
   are answered in place with a structured error, addressed to the
   envelope id when one survived parsing, to -1 otherwise. *)
let drain_frames dispatch backlog c =
  let rec go () =
    match Protocol.Frame.Decoder.next c.decoder with
    | `Awaiting -> ()
    | `Corrupt msg ->
        respond c ~id:(-1) (protocol_error ~where:"serve/frame" msg);
        c.closing <- true
    | `Frame payload ->
        (match Protocol.decode_request payload with
        | Ok (id, req) -> (
            match Backlog.push backlog (c, id, req) with
            | `Accepted -> c.inflight <- c.inflight + 1
            | `Shed ->
                Dispatch.note_shed dispatch;
                respond c ~id
                  (Protocol.Overloaded
                     { pending = Backlog.length backlog; cap = Backlog.cap backlog }))
        | Error (id_opt, msg) ->
            let id = Option.value id_opt ~default:(-1) in
            respond c ~id (protocol_error ~where:"serve/protocol" msg));
        go ()
  in
  go ()

(* [@nonblocking]: the runtime's [read]/[write] handlers answer [`Again]
   instead of parking the loop thread (the Unix implementation applies
   [Unix.set_nonblock] at accept time and folds EAGAIN/EWOULDBLOCK/EINTR
   into [`Again]; the simulated one never blocks at all).  The attribute
   is the audited barrier the [hotpath-blocking] lint stops at. *)
let[@nonblocking] read_conn ops dispatch backlog scratch c =
  match ops.Runtime.read c.fd scratch ~off:0 ~len:(Bytes.length scratch) with
  | `Again -> ()
  | `Err _ -> c.dead <- true
  | `Eof -> c.eof <- true
  | `Data n ->
      Protocol.Frame.Decoder.feed c.decoder scratch ~off:0 ~len:n;
      drain_frames dispatch backlog c

let[@nonblocking] write_conn ops c =
  let pending = Buffer.length c.out - c.sent in
  if pending > 0 then
    match ops.Runtime.write c.fd (Buffer.contents c.out) ~off:c.sent ~len:pending with
    | `Again -> ()
    | `Err _ -> c.dead <- true
    | `Wrote n ->
        c.sent <- c.sent + n;
        if c.sent >= Buffer.length c.out then begin
          Buffer.clear c.out;
          c.sent <- 0
        end

(* The loop is generic in the runtime's handle type: the production
   daemon instantiates it at [Unix.file_descr], the deterministic
   simulator at its fake-socket handles.  Connections live in a small
   list keyed by [equal_fd] — connection counts are bounded by the
   process fd limit and a cycle's work (decode, dispatch, encode, the
   syscalls) dwarfs a scan of a few entries, so linear lookup is
   immaterial. *)
let[@event_loop] serve : type fd.
    fd Runtime.ops -> config -> dispatch:Dispatch.t -> stop:bool Atomic.t -> unit
    =
 fun ops cfg ~dispatch ~stop ->
  let listener = ops.Runtime.listen ~path:cfg.socket_path in
  let conns : fd conn list ref = ref [] in
  let backlog = Backlog.create ~cap:cfg.queue_cap () in
  let scratch = Bytes.create 65536 in
  (* a peer may vanish between select and write; with SIGPIPE guarded
     that surfaces as an [`Err] on the write, which we already handle *)
  let restore_sigpipe = ops.Runtime.guard_sigpipe () in
  let find_conn fd = List.find_opt (fun c -> ops.Runtime.equal_fd c.fd fd) !conns in
  let accept_all () =
    let rec go () =
      match ops.Runtime.accept listener with
      | `Again | `Err _ -> ()
      | `Conn fd ->
          conns := make_conn fd :: !conns;
          go ()
    in
    go ()
  in
  let reap () =
    let victims, kept =
      List.partition
        (fun c ->
          let drained = Buffer.length c.out - c.sent <= 0 in
          c.dead
          || (c.closing && drained)
          || (c.eof && c.inflight <= 0 && drained))
        !conns
    in
    conns := kept;
    List.iter (fun c -> ops.Runtime.close c.fd) victims
  in
  let teardown () =
    (* never leak a connection fd, also on exceptional exit *)
    List.iter (fun c -> ops.Runtime.close c.fd) !conns;
    conns := [];
    ops.Runtime.close listener;
    ops.Runtime.unlink cfg.socket_path;
    restore_sigpipe ()
  in
  cfg.log (Printf.sprintf "listening on %s" cfg.socket_path);
  Fun.protect ~finally:teardown @@ fun () ->
  while not (Atomic.get stop) do
    let rds =
      listener
      :: List.filter_map
           (fun c -> if c.eof || c.dead then None else Some c.fd)
           !conns
    in
    let wrs =
      List.filter_map
        (fun c ->
          if (not c.dead) && Buffer.length c.out - c.sent > 0 then Some c.fd
          else None)
        !conns
    in
    (* the timeout doubles as the stop-flag poll interval *)
    let readable, writable = ops.Runtime.select ~read:rds ~write:wrs ~timeout:0.05 in
    List.iter
      (fun fd ->
        if ops.Runtime.equal_fd fd listener then accept_all ()
        else
          match find_conn fd with
          | Some c -> read_conn ops dispatch backlog scratch c
          | None -> ())
      readable;
    if Backlog.length backlog > 0 then begin
      let batch = Backlog.take backlog ~max:cfg.batch_cap in
      let replies = Dispatch.handle_batch dispatch batch in
      List.iter
        (fun (c, id, resp) ->
          c.inflight <- c.inflight - 1;
          if not c.dead then respond c ~id resp)
        replies
    end;
    List.iter
      (fun fd ->
        match find_conn fd with
        | Some c -> write_conn ops c
        | None -> ())
      writable;
    (* responses enqueued by this cycle's dispatch get flushed
       eagerly rather than waiting for the next select round *)
    List.iter (fun c -> if not c.dead then write_conn ops c) !conns;
    reap ()
  done;
  cfg.log "stop requested; shutting down"

let run ?(runtime = Runtime.default) cfg ~dispatch ~stop =
  match runtime with Runtime.T ops -> serve ops cfg ~dispatch ~stop
