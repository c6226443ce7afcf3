(* One serve workload against one daemon: set-up, a closed-loop
   saturation phase, an open-loop phase, and the correctness gate. *)

module FS = Faulty_search
module P = Search_serve.Protocol
module L = Loadgen

let setup_spawns = 9

(* Each phase is cut into equal slices, as many as keep 1000 open-loop
   requests in each; a run reports the median over slices of each rate
   and percentile, so a stall moves the slices it falls in, not the
   run's figure. *)
let slices_for n_open = max 1 (n_open / 1000)
let latency_limit_ms = 1000.
let grace_s = 5.

type result = {
  setup_s : float;
  p50_ms : float;
  p99_ms : float;
  p90_ms : float;
  capacity_rps : float;
  peak_rps : float;
  host : float;  (** median rate of the host probes, see [Host] *)
  busy_share : float;  (** share of the closed loop's counting window the daemon was on CPU *)
  ok_ratio : float;
  rss_mb : float;
  open_sent : int;
  attempted : int;
  sheds : int;  (** open-loop and closed-loop [Overloaded] answers *)
  open_sheds : int;
  errors : int;  (** [Failed] answers, transport errors and timeouts *)
  unanswered : int;  (** requests sent that never got an answer *)
  broken : bool;  (** a connection failed *)
  exhausted : bool;  (** the closed loop ran out of pre-generated requests *)
  wrong : int;
  unknown : int;
  conserved : bool;
  gen_late_p99_ms : float;
  stats : P.server_stats;
  book : L.book;
  resps : P.response array;  (** reference response per pool entry *)
  open_ids : int array;
  spans : Spans.t;
}

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  Option.get (FS.Stats.nearest_rank a ~p:50.)

let pct sorted p = Option.value (FS.Stats.nearest_rank sorted ~p) ~default:nan

(* Reference responses: Dispatch.handle_batch at one job over every
   distinct request, encoded as the daemon encodes them.  Every generated
   request is valid, so a [Failed] reference is a fault of the workload
   (and would let a [Failed] answer pass as correct). *)
let reference (s : Workload.serve) =
  FS.Pool.with_pool ~jobs:1 @@ fun pool ->
  let d = Search_serve.Dispatch.create ~pool ~cache_capacity:s.cache_cap () in
  let items = Array.to_list (Array.mapi (fun i r -> ((), i, r)) s.pool) in
  Search_serve.Dispatch.handle_batch d items
  |> List.map (function
       | _, i, (P.Failed _ | P.Overloaded _) ->
           failwith (Printf.sprintf "workload request %d has no valid reference answer" i)
       | _, _, r -> r)
  |> Array.of_list

let json_resp r = FS.Json.to_string (P.response_to_json r)
let json_req r = FS.Json.to_string (P.request_to_json r)

(* The benchmark builds envelopes by splicing; they must be the bytes
   the protocol module itself produces. *)
let check_splicing bodies expect resps pool =
  let id = 12345 in
  let b = L.make_book ~reqs:[| 0 |] ~bodies ~expect in
  if L.frame b 0 <> P.Frame.encode (P.encode_request ~id:0 pool.(0)) then
    failwith "request envelope splicing differs from Protocol.encode_request";
  if
    P.encode_response ~id resps.(0)
    <> "{\"id\":" ^ string_of_int id ^ ",\"resp\":" ^ expect.(0) ^ "}"
  then failwith "response envelope splicing differs from Protocol.encode_response"

let run ~(s : Workload.serve) ~seed ~seconds ~nproc ~corrupt ~daemon_argv ~dir ~tag =
  let conns_n = min s.conns nproc in
  let bodies = Array.map json_req s.pool in
  let resps = reference s in
  let expect = Array.map json_resp resps in
  check_splicing bodies expect resps s.pool;
  (* the gated capacity comes from the closed loop, so it gets the larger
     share of the run *)
  let closed_s = 0.6 *. seconds and open_s = 0.4 *. seconds in
  let prng = FS.Prng.make ~seed:(seed + 1000) in
  let p1, p2 = FS.Prng.split prng in
  let p2, p3 = FS.Prng.split p2 in
  (* the closed loop draws from a stream 15x the open-loop rate long;
     saturation runs at 2-8x that rate *)
  let closed_cap = int_of_float (closed_s *. s.rate *. 15.) + 1000 in
  let n_open = max 1 (int_of_float (open_s *. s.rate)) in
  let reqs = Array.append (Workload.stream s p1 closed_cap) (Workload.stream s p2 n_open) in
  let offsets = Workload.arrivals ~rate:s.rate p3 n_open in
  (* the gate must fire: damage the first request's reference, or send an
     invalid request in its place *)
  let e = reqs.(0) in
  (match corrupt with
  | Workload.Intact -> ()
  | Workload.Bad_reference -> expect.(e) <- expect.(e) ^ " "
  | Workload.Bad_request ->
      let m, k, f = Workload.invalid_instance in
      bodies.(e) <- json_req (P.Bound { m; k; f }));
  let b = L.make_book ~reqs ~bodies ~expect in
  let slices = slices_for n_open in
  let socket = Filename.concat dir (tag ^ ".sock") in
  let log = Filename.concat dir (tag ^ ".log") in
  let argv = daemon_argv ~socket in
  (* Each of [setup_spawns] daemons is timed to its first answer, then
     gets an equal share of the closed loop; the last one also serves the
     open loop.  Capacity is the median over daemons, so neither one
     daemon's placement nor one stretch of host interference sets it.
     The host is probed before each daemon starts. *)
  let share = closed_s /. float_of_int setup_spawns in
  let setups = Array.make setup_spawns 0. and caps = Array.make setup_spawns nan in
  let peaks = Array.make setup_spawns nan and hosts = Array.make setup_spawns nan in
  let wall = ref 0. and cpu = ref 0. and next_id = ref 0 in
  let conserved = ref true and broken = ref false in
  let last = ref None in
  for i = 0 to setup_spawns - 1 do
    hosts.(i) <- Host.probe ();
    let dm = Daemon.spawn ~argv ~socket ~log in
    setups.(i) <- dm.Daemon.setup_s;
    let lo = !next_id in
    (* the last daemon stays up for the open loop, unless this failed *)
    let finish () = if i < setup_spawns - 1 || !last = None then ignore (Daemon.stop dm.Daemon.pid) in
    Fun.protect ~finally:finish @@ fun () ->
    let conns = Array.init conns_n (fun _ -> L.connect socket) in
    let n, w, c, next =
      L.closed_loop b conns ~lo ~hi:closed_cap ~window:s.window ~seconds:share
        ~warmup:(0.25 *. share) ~grace:grace_s ~busy:(fun () -> Daemon.cpu_s dm.Daemon.pid)
    in
    caps.(i) <- float_of_int n /. c;
    peaks.(i) <- float_of_int n /. w;
    wall := !wall +. w;
    cpu := !cpu +. c;
    next_id := next;
    if i < setup_spawns - 1 then begin
      broken := !broken || Array.exists (fun c -> c.L.broken) conns;
      Array.iter L.close conns;
      (* the set-up probe plus every request this daemon was sent *)
      let st = Daemon.stats ~socket ~id:closed_cap in
      conserved := !conserved && st.P.served + st.P.sheds = next - lo + 1
    end
    else last := Some (dm, conns, lo)
  done;
  let dm, conns, last_lo = Option.get !last in
  Fun.protect ~finally:(fun () -> ignore (Daemon.stop dm.Daemon.pid)) @@ fun () ->
  (* a daemon fast enough to use up the pre-generated closed-loop stream
     would be under-measured: the run is then invalid *)
  let exhausted = !next_id >= closed_cap in
  let t0 = Unix.gettimeofday () +. 0.01 in
  L.open_loop b conns ~lo:closed_cap ~hi:(closed_cap + n_open) ~offsets ~t0 ~grace:grace_s;
  let broken = !broken || Array.exists (fun c -> c.L.broken) conns in
  Array.iter L.close conns;
  let total = Array.length reqs in
  let count lo hi st =
    let n = ref 0 in
    for id = lo to hi - 1 do
      if Bytes.get b.L.state id = st then incr n
    done;
    !n
  in
  let attempted = total - count 0 total L.st_unsent in
  let sheds = count 0 total L.st_shed in
  let open_sheds = count closed_cap total L.st_shed in
  let timeouts = count 0 total L.st_sent in
  let errors = count 0 total L.st_failed + timeouts in
  let wrong = count 0 total L.st_wrong in
  let open_ok = count closed_cap total L.st_ok in
  let stats = Daemon.stats ~socket ~id:total in
  let rss_mb = Daemon.vmhwm_mb dm.Daemon.pid in
  (* the set-up probe plus every request the last daemon was sent, each
     served or shed *)
  let conserved =
    !conserved && stats.P.served + stats.P.sheds = !next_id - last_lo + n_open + 1
  in
  let cap v = if Float.is_finite v then v else latency_limit_ms in
  let latency id =
    if Bytes.get b.L.state id = L.st_ok then (b.L.recv_at.(id) -. b.L.due.(id)) *. 1e3
    else infinity
  in
  (* open-loop requests by due-time slice *)
  let per_slice = (n_open + slices - 1) / slices in
  let slice_pct p =
    median
      (Array.init slices (fun k ->
           let lo = k * per_slice in
           let hi = min n_open (lo + per_slice) in
           let a = Array.init (max 0 (hi - lo)) (fun i -> latency (closed_cap + lo + i)) in
           Array.sort Float.compare a;
           cap (pct a p)))
  in
  let late =
    Array.init n_open (fun i ->
        let id = closed_cap + i in
        (b.L.sent_at.(id) -. b.L.due.(id)) *. 1e3)
  in
  Array.sort Float.compare late;
  let spans = Spans.create () in
  for i = 0 to n_open - 1 do
    let id = closed_cap + i in
    if Bytes.get b.L.state id = L.st_ok then
      Spans.add spans ~name:"request" ~req:id ~start:b.L.due.(id) b.L.recv_at.(id)
  done;
  {
    setup_s = median setups;
    p50_ms = slice_pct 50.;
    p99_ms = slice_pct 99.;
    p90_ms = slice_pct 90.;
    capacity_rps = median caps;
    peak_rps = median peaks;
    host = median hosts;
    busy_share = !cpu /. !wall;
    ok_ratio = float_of_int open_ok /. float_of_int n_open;
    rss_mb;
    open_sent = n_open;
    attempted;
    sheds;
    open_sheds;
    errors = (errors + if broken then 1 else 0);
    unanswered = timeouts;
    broken;
    exhausted;
    wrong;
    unknown = b.L.unknown;
    conserved;
    gen_late_p99_ms = pct late 99.;
    stats;
    book = b;
    resps;
    open_ids = Array.init n_open (fun i -> closed_cap + i);
    spans;
  }
