(* The load generator: one process, one thread, at most nproc
   connections, pipelined requests.

   Requests are identified by a global index [id] into [reqs] (the pool
   index of each request); the frame sent for [id] is the envelope
   {"id": id, "req": body}.  Expected responses are known before any
   request is sent, so each response is checked on arrival against the
   reference bytes without being stored.  An [Overloaded] answer is
   counted and not retried; any other answer that differs from the
   reference is wrong ([Failed] answers are counted apart, and fail the
   gate all the same: every generated request is valid). *)

module P = Search_serve.Protocol

(* terminal state of each request *)
let st_unsent = '\000'
let st_sent = '\001'
let st_ok = '\002'
let st_shed = '\003'
let st_failed = '\004'
let st_wrong = '\005'

type book = {
  reqs : int array;  (** pool index of request [id] *)
  bodies : string array;  (** request JSON per pool entry *)
  expect : string array;  (** reference response JSON per pool entry *)
  state : Bytes.t;
  due : float array;  (** open-loop due time (absolute), else 0 *)
  sent_at : float array;
  recv_at : float array;
  mutable unknown : int;  (** frames naming no outstanding request *)
  mutable wrong_sample : string option;
}

let make_book ~reqs ~bodies ~expect =
  let n = Array.length reqs in
  {
    reqs;
    bodies;
    expect;
    state = Bytes.make n st_unsent;
    due = Array.make n 0.;
    sent_at = Array.make n 0.;
    recv_at = Array.make n 0.;
    unknown = 0;
    wrong_sample = None;
  }

let frame b id =
  P.Frame.encode ("{\"id\":" ^ string_of_int id ^ ",\"req\":" ^ b.bodies.(b.reqs.(id)) ^ "}")

(* ------------------------------------------------------------------ *)
(* connections                                                         *)

type conn = {
  fd : Unix.file_descr;
  dec : P.Frame.Decoder.t;
  mutable obuf : Bytes.t;
  mutable ooff : int;
  mutable olen : int;
  mutable outstanding : int;
  mutable broken : bool;
}

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  Unix.set_nonblock fd;
  {
    fd;
    dec = P.Frame.Decoder.create ();
    obuf = Bytes.create 65536;
    ooff = 0;
    olen = 0;
    outstanding = 0;
    broken = false;
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let push c s =
  let len = String.length s in
  if c.olen + len > Bytes.length c.obuf then begin
    let live = c.olen - c.ooff in
    let nb =
      if live + len > Bytes.length c.obuf then
        Bytes.create (2 * (live + len))
      else c.obuf
    in
    Bytes.blit c.obuf c.ooff nb 0 live;
    c.obuf <- nb;
    c.ooff <- 0;
    c.olen <- live
  end;
  Bytes.blit_string s 0 c.obuf c.olen len;
  c.olen <- c.olen + len

let pending_out c = c.olen > c.ooff

let flush c =
  if pending_out c && not c.broken then
    match Unix.single_write c.fd c.obuf c.ooff (c.olen - c.ooff) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> c.broken <- true
    | n ->
        c.ooff <- c.ooff + n;
        if c.ooff = c.olen then begin
          c.ooff <- 0;
          c.olen <- 0
        end

let send_frame b c id f now =
  push c f;
  Bytes.set b.state id st_sent;
  b.sent_at.(id) <- now;
  c.outstanding <- c.outstanding + 1

(* ------------------------------------------------------------------ *)
(* response checking                                                   *)

(* Parse the leading {"id":N of a response payload: (id, offset after
   the digits), or None. *)
let parse_id s =
  let pre = "{\"id\":" in
  let lp = String.length pre and n = String.length s in
  if n <= lp || String.sub s 0 lp <> pre then None
  else begin
    let i = ref lp and v = ref 0 in
    while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
      v := (!v * 10) + Char.code s.[!i] - 48;
      incr i
    done;
    if !i = lp then None else Some (!v, !i)
  end

(* payload = prefix ^ ",\"resp\":" ^ expect ^ "}" *)
let matches s off expect =
  let mid = ",\"resp\":" in
  let lm = String.length mid and le = String.length expect in
  String.length s = off + lm + le + 1
  && s.[String.length s - 1] = '}'
  &&
  let ok = ref true and j = ref 0 in
  while !ok && !j < lm do
    if s.[off + !j] <> mid.[!j] then ok := false;
    incr j
  done;
  j := 0;
  while !ok && !j < le do
    if s.[off + lm + !j] <> expect.[!j] then ok := false;
    incr j
  done;
  !ok

let on_frame b c payload now =
  match parse_id payload with
  | Some (id, off) when id < Bytes.length b.state && Bytes.get b.state id = st_sent ->
      c.outstanding <- c.outstanding - 1;
      b.recv_at.(id) <- now;
      if matches payload off b.expect.(b.reqs.(id)) then Bytes.set b.state id st_ok
      else
        let st =
          match P.decode_response payload with
          | Ok (_, P.Overloaded _) -> st_shed
          | Ok (_, P.Failed _) -> st_failed
          | Ok _ | Error _ -> st_wrong
        in
        if st <> st_shed && b.wrong_sample = None then b.wrong_sample <- Some payload;
        Bytes.set b.state id st
  | Some _ | None -> b.unknown <- b.unknown + 1

let scratch = Bytes.create 65536

let read_conn b c now =
  match Unix.read c.fd scratch 0 (Bytes.length scratch) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> c.broken <- true
  | 0 -> c.broken <- true
  | n ->
      P.Frame.Decoder.feed c.dec scratch ~off:0 ~len:n;
      let rec go () =
        match P.Frame.Decoder.next c.dec with
        | `Awaiting -> ()
        | `Corrupt _ -> c.broken <- true
        | `Frame payload ->
            on_frame b c payload now;
            go ()
      in
      go ()

(* One select round: flush, wait at most [timeout], read what arrived.
   [fds] are the connections' descriptors, in [conns] order. *)
let poll b conns fds ~timeout =
  Array.iter flush conns;
  let wrs =
    if Array.exists (fun c -> pending_out c && not c.broken) conns then
      List.filter_map (fun c -> if pending_out c && not c.broken then Some c.fd else None)
        (Array.to_list conns)
    else []
  in
  match Unix.select fds wrs [] (Float.max 0. timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
      let now = Unix.gettimeofday () in
      Array.iter
        (fun c ->
          if not c.broken then begin
            if writable <> [] && List.mem c.fd writable then flush c;
            if List.mem c.fd readable then read_conn b c now
          end)
        conns

let outstanding conns = Array.fold_left (fun a c -> if c.broken then a else a + c.outstanding) 0 conns

(* Wait for the answers still in flight, at most [grace] seconds. *)
let drain b conns fds ~grace =
  let stop = Unix.gettimeofday () +. grace in
  while outstanding conns > 0 && Unix.gettimeofday () < stop do
    poll b conns fds ~timeout:0.05
  done

(* ------------------------------------------------------------------ *)
(* phases                                                              *)

(* Open loop: request [id] in [lo, hi) is due at [t0 + offsets.(id - lo)]
   and goes out on connection [id mod conns] as soon as it is due,
   whatever is still outstanding. *)
let open_loop b conns ~lo ~hi ~offsets ~t0 ~grace =
  let nc = Array.length conns and fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  (* frames are built before the phase, so sending allocates nothing *)
  let frames = Array.init (hi - lo) (fun i -> frame b (lo + i)) in
  for id = lo to hi - 1 do
    b.due.(id) <- t0 +. offsets.(id - lo)
  done;
  let next = ref lo in
  while !next < hi do
    let now = Unix.gettimeofday () in
    while !next < hi && b.due.(!next) <= now do
      send_frame b conns.(!next mod nc) !next frames.(!next - lo) now;
      incr next
    done;
    let timeout = if !next < hi then b.due.(!next) -. Unix.gettimeofday () else 0. in
    poll b conns fds ~timeout
  done;
  drain b conns fds ~grace

(* Closed loop: keep [window] requests outstanding per connection for
   [seconds]; completions after the first [warmup] seconds count.
   Answers the completions counted, the seconds they were counted over,
   the daemon's CPU seconds over the same window ([busy ()] reads them),
   and the next unused id. *)
let closed_loop b conns ~lo ~hi ~window ~seconds ~warmup ~grace ~busy =
  let next = ref lo and fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  (* a connection sends its next window only once the whole last one is
     answered, in one write: the daemon reads and dispatches a window at
     a time, so its batch sizes do not drift with the timing of single
     responses *)
  let top_up c now =
    if c.outstanding = 0 then
      while (not c.broken) && c.outstanding < window && !next < hi do
        send_frame b c !next (frame b !next) now;
        incr next
      done
  in
  let t0 = Unix.gettimeofday () in
  Array.iter (fun c -> top_up c t0) conns;
  let t_end = t0 +. seconds in
  let start = ref None and now = ref t0 in
  while !now < t_end do
    let until = if !start = None then t0 +. warmup else t_end in
    poll b conns fds ~timeout:(Float.max 0. (until -. !now));
    now := Unix.gettimeofday ();
    if !start = None && !now >= t0 +. warmup then start := Some (!now, busy ());
    if !now < t_end then Array.iter (fun c -> top_up c !now) conns
  done;
  let t_stop = Unix.gettimeofday () and cpu_stop = busy () in
  let t_count, cpu_count = Option.value !start ~default:(t_stop, cpu_stop) in
  let n = ref 0 in
  for id = lo to !next - 1 do
    let r = b.recv_at.(id) in
    if Bytes.get b.state id = st_ok && r >= t_count && r < t_stop then incr n
  done;
  drain b conns fds ~grace;
  (!n, t_stop -. t_count, cpu_stop -. cpu_count, !next)
