module E = Search_numerics.Search_error
module Prng = Search_numerics.Prng
module Runtime = Search_serve.Runtime

(* A simulated Unix-domain-socket layer over {!Sim}: integer fds,
   per-direction byte streams delivered as delayed chunk timers.  Writes
   are fragmented into arbitrary byte chunks (this is what the frame
   decoder must survive); without faults, deliveries on an edge are
   clamped monotone so the stream stays in order.  With faults enabled,
   a connection's split-PRNG plan may jitter chunk delays past each
   other (reordering deliveries at distinct virtual times — detected by
   a per-edge sequence check and surfaced as a reset, since a stream
   socket can never hand reordered bytes to its reader), drop a chunk
   (which resets the connection, like a peer crash mid-stream), or crash
   the connection outright at a scheduled instant.  Readers therefore
   always observe an exact prefix of what was written, then possibly an
   error — never corrupted bytes. *)

type counters = {
  mutable chunks : int;
  mutable reorders : int;
  mutable drops : int;
  mutable crashes : int;
  mutable partial_writes : int;
}

type ep = {
  mutable peer : int;  (** peer endpoint fd; [-1] for none *)
  mutable front : string list;  (** delivered, unread chunks (head first) *)
  mutable back : string list;  (** ... continued, reversed *)
  mutable eof : bool;  (** peer closed its write side (after in-flight data) *)
  mutable broken : bool;  (** transport reset: reads and writes fail now *)
  mutable opened : bool;
  mutable waiters : (unit -> unit) list;  (** parked readers / selects *)
  mutable last_arrival : float;  (** latest scheduled delivery into this ep *)
  mutable out_prng : Prng.t;  (** fragmentation / fault stream for writes *)
  mutable out_seq : int;  (** chunks sent out of this ep, for order checks *)
  mutable expect_seq : int;  (** next chunk sequence this ep may receive *)
}

type listener = {
  mutable backlog_q : int list;  (** accepted-but-unclaimed endpoint fds *)
  mutable l_open : bool;
  mutable l_waiters : (unit -> unit) list;
}

type node = Listener of listener | Endpoint of ep

type t = {
  sim : Sim.t;
  mutable prng : Prng.t;
  faults : bool;
  nodes : (int, node) Hashtbl.t;
  mutable bound : (string * int) list;  (** socket files: path -> listener fd *)
  mutable next_fd : int;
  stats : counters;
}

let create ~sim ~prng ~faults =
  {
    sim;
    prng;
    faults;
    nodes = Hashtbl.create 64;
    bound = [];
    next_fd = 3;
    stats =
      { chunks = 0; reorders = 0; drops = 0; crashes = 0; partial_writes = 0 };
  }

let counters t = t.stats

let draw t f =
  let v, prng = f t.prng in
  t.prng <- prng;
  v

let draw_ep e f =
  let v, prng = f e.out_prng in
  e.out_prng <- prng;
  v

let node t fd = Hashtbl.find_opt t.nodes fd

let find_bound t path =
  List.find_opt (fun (p, _) -> String.equal p path) t.bound

let drop_bound t path =
  t.bound <- List.filter (fun (p, _) -> not (String.equal p path)) t.bound

let nonempty = function [] -> false | _ :: _ -> true

let wake_ep t e =
  let ws = e.waiters in
  e.waiters <- [];
  List.iter (Sim.schedule t.sim) ws

let wake_listener t l =
  let ws = l.l_waiters in
  l.l_waiters <- [];
  List.iter (Sim.schedule t.sim) ws

(* Reset both halves of a connection: undelivered data is lost, both
   sides see a transport error on the next read or write. *)
let break_conn t e =
  let sides =
    e :: (match node t e.peer with Some (Endpoint p) -> [ p ] | _ -> [])
  in
  List.iter
    (fun s ->
      if s.opened && not s.broken then begin
        s.broken <- true;
        s.front <- [];
        s.back <- [];
        wake_ep t s
      end)
    sides

(* -- chunk queue --------------------------------------------------- *)

let pop_chunk e =
  match e.front with
  | c :: rest ->
      e.front <- rest;
      Some c
  | [] -> (
      match List.rev e.back with
      | [] -> None
      | c :: rest ->
          e.back <- [];
          e.front <- rest;
          Some c)

let push_front e c = e.front <- c :: e.front
let push_chunk e c = e.back <- c :: e.back

(* -- delivery ------------------------------------------------------ *)

(* Deliver one chunk at its scheduled instant, enforcing stream order:
   a real stream socket can never surface reordered bytes, so an
   inversion that materialises (a jittered chunk overtaken by its
   successors) is surfaced as a reset — the reader sees an exact prefix
   of what was written, then an error, never corrupted bytes. *)
let arrive t dst seq chunk () =
  if dst.opened && not dst.broken then
    if Int.equal seq dst.expect_seq then begin
      dst.expect_seq <- seq + 1;
      push_chunk dst chunk;
      wake_ep t dst
    end
    else begin
      t.stats.reorders <- t.stats.reorders + 1;
      break_conn t dst
    end

(* Schedule delivery of [data] (one write's accepted bytes) from [src]
   into its peer, fragmented into arbitrary chunks.  Fault draws come
   from the writer's per-edge split stream, so a connection's fault plan
   is independent of everything else in the run.

   The write's base delay is drawn from a coarse grid (100–500 µs in
   100 µs steps) and all its chunks normally land in a single timer at
   that instant: independent edges then collide at grid points, several
   frames complete inside one server cycle, and admission control
   actually fires (chunks still arrive as separate reads, so decoder
   fragmentation is exercised regardless).  A continuously-delayed
   network would interleave one frame per server wake-up forever —
   virtual compute costs no time — and the overload paths would go
   untested. *)
let deliver t src data =
  match node t src.peer with
  | Some (Endpoint dst) when dst.opened ->
      let len = String.length data in
      let base =
        0.0001 *. float_of_int (1 + draw_ep src (Prng.int ~bound:5))
      in
      let arrival =
        let a = Sim.now t.sim +. base in
        if a > dst.last_arrival then a else dst.last_arrival +. 1e-9
      in
      let pos = ref 0 in
      let continue = ref true in
      let batch = ref [] in
      while !continue && !pos < len do
        let rem = len - !pos in
        let cut =
          if rem <= 1 then rem
          else 1 + draw_ep src (Prng.int ~bound:(Int.min rem 97))
        in
        let chunk = String.sub data !pos cut in
        pos := !pos + cut;
        t.stats.chunks <- t.stats.chunks + 1;
        let seq = src.out_seq in
        src.out_seq <- seq + 1;
        let dropped = t.faults && draw_ep src Prng.float < 0.01 in
        let jitter =
          if t.faults && draw_ep src Prng.float < 0.05 then
            draw_ep src (Prng.float_range ~lo:0.0000001 ~hi:0.002)
          else 0.
        in
        if dropped then begin
          t.stats.drops <- t.stats.drops + 1;
          (* lost bytes on a stream are unrecoverable: model the drop as
             a connection reset at what would have been delivery time *)
          continue := false;
          Sim.at t.sim ~delay:(arrival -. Sim.now t.sim) (fun () ->
              break_conn t src)
        end
        else if jitter > 0. then begin
          (* this chunk sails past the rest of the write: its own timer,
             unclamped, may land after its successors — the sequence
             check in [arrive] then resets the connection *)
          let late = Sim.now t.sim +. base +. jitter in
          dst.last_arrival <-
            (if late > dst.last_arrival then late else dst.last_arrival);
          Sim.at t.sim ~delay:(late -. Sim.now t.sim)
            (arrive t dst seq chunk)
        end
        else batch := (seq, chunk) :: !batch
      done;
      (match !batch with
      | [] -> ()
      | chunks ->
          let chunks = List.rev chunks in
          dst.last_arrival <-
            (if arrival > dst.last_arrival then arrival else dst.last_arrival);
          Sim.at t.sim ~delay:(arrival -. Sim.now t.sim) (fun () ->
              List.iter (fun (seq, chunk) -> arrive t dst seq chunk ()) chunks))
  | _ -> ()

(* -- connection establishment -------------------------------------- *)

let fresh_fd t =
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  fd

let make_ep ~prng peer =
  {
    peer;
    front = [];
    back = [];
    eof = false;
    broken = false;
    opened = true;
    waiters = [];
    last_arrival = 0.;
    out_prng = prng;
    out_seq = 0;
    expect_seq = 0;
  }

let sim_connect t ~path =
  let refused what =
    E.raise_ (E.Io_failure { path; what = "connect: " ^ what })
  in
  match find_bound t path with
  | None -> refused "no such socket"
  | Some (_, lfd) -> (
      match node t lfd with
      | Some (Listener l) when l.l_open ->
          let cfd = fresh_fd t in
          let sfd = fresh_fd t in
          let p1 = draw t Prng.split in
          let p2 = draw t Prng.split in
          let client_ep = make_ep ~prng:p1 sfd in
          let server_ep = make_ep ~prng:p2 cfd in
          Hashtbl.replace t.nodes cfd (Endpoint client_ep);
          Hashtbl.replace t.nodes sfd (Endpoint server_ep);
          (* the connection's crash plan: with faults on, some
             connections suffer a scheduled peer-crash *)
          (if t.faults && draw t Prng.float < 0.15 then
             let when_ = draw t (Prng.float_range ~lo:0.001 ~hi:0.2) in
             Sim.at t.sim ~delay:when_ (fun () ->
                 if client_ep.opened && not client_ep.broken then begin
                   t.stats.crashes <- t.stats.crashes + 1;
                   break_conn t client_ep
                 end));
          l.backlog_q <- l.backlog_q @ [ sfd ];
          wake_listener t l;
          cfd
      | _ -> refused "connection refused")

(* -- ops ----------------------------------------------------------- *)

let readable t fd =
  match node t fd with
  | Some (Listener l) -> (not l.l_open) || nonempty l.backlog_q
  | Some (Endpoint e) ->
      (not e.opened) || e.broken || e.eof || nonempty e.front
      || nonempty e.back
  | None -> true

let sim_listen t ~path =
  (* a stale socket file (listener long closed) is replaced and a live
     one refused, as the unix implementation does after its probe
     connect *)
  (match find_bound t path with
  | Some (_, lfd) -> (
      match node t lfd with
      | Some (Listener l) when l.l_open ->
          E.raise_
            (E.Io_failure { path; what = "bind: address already in use" })
      | _ -> drop_bound t path)
  | None -> ());
  let lfd = fresh_fd t in
  Hashtbl.replace t.nodes lfd
    (Listener { backlog_q = []; l_open = true; l_waiters = [] });
  t.bound <- (path, lfd) :: t.bound;
  lfd

let sim_accept t fd =
  match node t fd with
  | Some (Listener l) when l.l_open -> (
      match l.backlog_q with
      | [] -> `Again
      | sfd :: rest ->
          l.backlog_q <- rest;
          `Conn sfd)
  | Some (Listener _) -> `Err "accept on closed listener"
  | Some (Endpoint _) | None -> `Err "accept on non-listener"

let sim_read t fd buf ~off ~len =
  match node t fd with
  | Some (Endpoint e) when e.opened ->
      if e.broken then `Err "connection reset by peer"
      else begin
        match pop_chunk e with
        | Some c ->
            let n = Int.min len (String.length c) in
            Bytes.blit_string c 0 buf off n;
            if n < String.length c then
              push_front e (String.sub c n (String.length c - n));
            `Data n
        | None -> if e.eof then `Eof else `Again
      end
  | Some (Endpoint _) -> `Err "read on closed fd"
  | Some (Listener _) | None -> `Err "read on non-endpoint"

let sim_write t fd s ~off ~len =
  match node t fd with
  | Some (Endpoint e) when e.opened ->
      if e.broken then `Err "connection reset by peer"
      else if
        match node t e.peer with
        | Some (Endpoint p) -> not p.opened
        | Some (Listener _) | None -> true
      then `Err "broken pipe"
      else begin
        let n =
          if len > 1 && draw_ep e Prng.float < 0.15 then begin
            t.stats.partial_writes <- t.stats.partial_writes + 1;
            1 + draw_ep e (Prng.int ~bound:(len - 1))
          end
          else len
        in
        deliver t e (String.sub s off n);
        `Wrote n
      end
  | Some (Endpoint _) -> `Err "write on closed fd"
  | Some (Listener _) | None -> `Err "write on non-endpoint"

let sim_select t ~read ~write ~timeout =
  let ready () =
    (* endpoints never block on write in the simulation (buffers are
       unbounded), so every watched write fd is always ready *)
    (List.filter (readable t) read, write)
  in
  let r, w = ready () in
  if nonempty r || nonempty w || timeout <= 0. then (r, w)
  else begin
    Sim.suspend t.sim (fun resume ->
        let woken = ref false in
        let once () =
          if not !woken then begin
            woken := true;
            Sim.schedule t.sim resume
          end
        in
        List.iter
          (fun fd ->
            match node t fd with
            | Some (Listener l) -> l.l_waiters <- once :: l.l_waiters
            | Some (Endpoint e) -> e.waiters <- once :: e.waiters
            | None -> ())
          read;
        Sim.at t.sim ~delay:timeout once);
    ready ()
  end

let sim_close t fd =
  match node t fd with
  | Some (Listener l) ->
      if l.l_open then begin
        l.l_open <- false;
        (* pending never-accepted connections are reset; the socket file
           itself survives until [unlink], as on a real system *)
        List.iter
          (fun sfd ->
            match node t sfd with
            | Some (Endpoint e) -> break_conn t e
            | Some (Listener _) | None -> ())
          l.backlog_q;
        l.backlog_q <- [];
        wake_listener t l
      end
  | Some (Endpoint e) ->
      if e.opened then begin
        e.opened <- false;
        e.front <- [];
        e.back <- [];
        wake_ep t e;
        (* a clean FIN: the peer sees EOF after any in-flight data *)
        match node t e.peer with
        | Some (Endpoint p) when p.opened && not p.broken ->
            let arrival =
              let a = Sim.now t.sim +. 0.0001 in
              if a > p.last_arrival then a else p.last_arrival +. 1e-9
            in
            p.last_arrival <- arrival;
            Sim.at t.sim ~delay:(arrival -. Sim.now t.sim) (fun () ->
                if p.opened && not p.broken then begin
                  p.eof <- true;
                  wake_ep t p
                end)
        | Some (Endpoint _) | Some (Listener _) | None -> ()
      end
  | None -> ()

let sim_unlink t path = drop_bound t path

let rec sim_read_blocking t fd buf ~off ~len =
  match sim_read t fd buf ~off ~len with
  | `Again ->
      Sim.suspend t.sim (fun resume ->
          match node t fd with
          | Some (Endpoint e) -> e.waiters <- resume :: e.waiters
          | Some (Listener l) -> l.l_waiters <- resume :: l.l_waiters
          | None -> Sim.schedule t.sim resume);
      sim_read_blocking t fd buf ~off ~len
  | (`Data _ | `Eof | `Err _) as r -> r

let sim_write_blocking t fd s ~off ~len =
  match sim_write t fd s ~off ~len with
  | `Again -> `Err "simulated write cannot block"
  | (`Wrote _ | `Err _) as r -> r

let ops t =
  {
    Runtime.equal_fd = Int.equal;
    listen = (fun ~path -> sim_listen t ~path);
    accept = (fun fd -> sim_accept t fd);
    read = (fun fd buf ~off ~len -> sim_read t fd buf ~off ~len);
    write = (fun fd s ~off ~len -> sim_write t fd s ~off ~len);
    select = (fun ~read ~write ~timeout -> sim_select t ~read ~write ~timeout);
    close = (fun fd -> sim_close t fd);
    unlink = (fun path -> sim_unlink t path);
    guard_sigpipe = (fun () -> fun () -> ());
    connect = (fun ~path -> sim_connect t ~path);
    read_blocking =
      (fun fd buf ~off ~len -> sim_read_blocking t fd buf ~off ~len);
    write_blocking = (fun fd s ~off ~len -> sim_write_blocking t fd s ~off ~len);
  }

let runtime t = Runtime.T (ops t)

let socket_bound t path = Option.is_some (find_bound t path)

let open_fds t =
  Hashtbl.fold
    (fun fd n acc ->
      match n with
      | Listener l -> if l.l_open then fd :: acc else acc
      | Endpoint e -> if e.opened then fd :: acc else acc)
    t.nodes []
  |> List.sort Int.compare
