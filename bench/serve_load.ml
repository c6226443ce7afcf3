(* serve-load: latency-measuring load generator for the serve daemon.

   Drives N concurrent connections (closed loop: one outstanding request
   per connection) over a deterministic seeded workload mix — mostly
   bound queries over a small parameter pool (so the shared cache gets
   hits), plus certificates, Monte-Carlo simulations, sweeps and a few
   stats probes.  Reports throughput and nearest-rank p50/p99 latency
   into BENCH_serve.json, and appends a trend line to
   results/bench_history.jsonl.

   Determinism check: the workload is a pure function of --seed, and the
   daemon's responses are pure functions of the requests, so the hex
   digest printed at the end — computed over the terminal response bytes
   of every non-stats request, in global request order — is identical no
   matter how many worker domains the daemon runs (--jobs 1 vs 4), how
   requests interleave, or how often admission control sheds (shed
   requests are retried until served; the retries are counted, the
   eventual response is the same bytes).  Wall-clock readings stay in
   the latency report and never touch the digest. *)

module FS = Faulty_search
module P = Search_serve.Protocol

let usage () =
  prerr_endline
    "usage: serve_load [--socket PATH] [--conns N] [--requests N] [--seed S]\n\
    \                  [--out FILE] [--history FILE|none]";
  exit 2

type opts = {
  mutable socket : string;
  mutable conns : int;
  mutable requests : int;
  mutable seed : int;
  mutable out : string;
  mutable history : string option;
}

let parse_args () =
  let o =
    {
      socket = "/tmp/faulty-search.sock";
      conns = 200;
      requests = 1000;
      seed = 1;
      out = "BENCH_serve.json";
      history = Some (Filename.concat "results" "bench_history.jsonl");
    }
  in
  let rec go = function
    | [] -> o
    | "--socket" :: v :: rest ->
        o.socket <- v;
        go rest
    | "--conns" :: v :: rest ->
        o.conns <- int_of_string v;
        go rest
    | "--requests" :: v :: rest ->
        o.requests <- int_of_string v;
        go rest
    | "--seed" :: v :: rest ->
        o.seed <- int_of_string v;
        go rest
    | "--out" :: v :: rest ->
        o.out <- v;
        go rest
    | "--history" :: "none" :: rest ->
        o.history <- None;
        go rest
    | "--history" :: v :: rest ->
        o.history <- Some v;
        go rest
    | _ -> usage ()
  in
  let o = go (List.tl (Array.to_list Sys.argv)) in
  (* --requests 0 is a legal smoke probe: connect, read the server
     stats, emit a report with null percentiles *)
  if o.conns < 1 || o.requests < 0 then usage ();
  o

(* ------------------------------------------------------------------ *)
(* deterministic workload                                              *)

(* ~50% bound / 20% certify / 15% simulate / 10% sweep / 5% stats *)
let gen_request prng =
  let roll, prng = FS.Prng.int ~bound:100 prng in
  if roll < 50 then begin
    let mi, prng = FS.Prng.int ~bound:2 prng in
    let ki, prng = FS.Prng.int ~bound:4 prng in
    let fi, prng = FS.Prng.int ~bound:3 prng in
    let k = 1 + ki in
    (* keep f <= k so most queries are valid instances; the pool is small
       on purpose — repeats are what make the shared cache hit *)
    let f = if fi > k then k else fi in
    (P.Bound { m = 2 + mi; k; f }, prng)
  end
  else if roll < 70 then begin
    let l, prng = FS.Prng.float_range ~lo:4.0 ~hi:6.0 prng in
    (P.Certify { m = 2; k = 3; f = 1; n = 200.; lambda = l }, prng)
  end
  else if roll < 85 then begin
    let b, prng = FS.Prng.float_range ~lo:2.0 ~hi:5.0 prng in
    let xi, prng = FS.Prng.int ~bound:900 prng in
    let s, prng = FS.Prng.int ~bound:1000000 prng in
    ( P.Simulate
        { beta = b; x = float_of_int (100 + xi); samples = 64; seed = s },
      prng )
  end
  else if roll < 95 then (P.Sweep { m = 2; k = 3; f = 1; n = 100.; samples = 5 }, prng)
  else (P.Stats, prng)

let is_stats = function
  | P.Stats -> true
  | P.Bound _ | P.Certify _ | P.Sweep _ | P.Simulate _ -> false

(* ------------------------------------------------------------------ *)
(* connection driver                                                   *)

type conn = {
  fd : Unix.file_descr;
  decoder : P.Frame.Decoder.t;
  out : Buffer.t;
  mutable sent : int;
  mutable current : int option;  (** outstanding global request index *)
  mutable pending : int list;  (** assigned indices still to issue *)
  mutable first_send : float;  (** of the current request, first attempt *)
}

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("serve_load: " ^ s); exit 1) fmt

(* The connection record owns the descriptor; a refused connect closes
   it before exiting. *)
let[@releases] connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> ()
  | exception Unix.Unix_error (err, _, _) ->
      Unix.close fd;
      fail "cannot connect to %s: %s" path (Unix.error_message err));
  Unix.set_nonblock fd;
  {
    fd;
    decoder = P.Frame.Decoder.create ();
    out = Buffer.create 256;
    sent = 0;
    current = None;
    pending = [];
    first_send = 0.;
  }

let enqueue_request requests c i =
  Buffer.add_string c.out (P.Frame.encode (P.encode_request ~id:i requests.(i)))

let flush_writes c =
  let pending = Buffer.length c.out - c.sent in
  if pending > 0 then
    match Unix.write_substring c.fd (Buffer.contents c.out) c.sent pending with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error (err, _, _) ->
        fail "write: %s" (Unix.error_message err)
    | n ->
        c.sent <- c.sent + n;
        if c.sent >= Buffer.length c.out then begin
          Buffer.clear c.out;
          c.sent <- 0
        end

let () =
  let o = parse_args () in
  (* pre-generate the whole schedule so it is a pure function of --seed *)
  let requests = Array.make o.requests P.Stats in
  let prng = ref (FS.Prng.make ~seed:o.seed) in
  for i = 0 to o.requests - 1 do
    let req, p = gen_request !prng in
    requests.(i) <- req;
    prng := p
  done;
  let responses = Array.make o.requests "" in
  let latencies = Array.make o.requests 0. in
  let retries = ref 0 in
  let completed = ref 0 in
  let conns = Array.init (min o.conns o.requests) (fun _ -> connect o.socket) in
  (* request i belongs to connection (i mod conns), issued in order *)
  for i = o.requests - 1 downto 0 do
    let c = conns.(i mod Array.length conns) in
    c.pending <- i :: c.pending
  done;
  let issue_next c =
    match c.pending with
    | [] -> ()
    | i :: rest ->
        c.pending <- rest;
        c.current <- Some i;
        c.first_send <- Unix.gettimeofday ();
        enqueue_request requests c i
  in
  Array.iter issue_next conns;
  let handle_response c (id, resp) =
    match c.current with
    | None -> fail "unexpected response id=%d on idle connection" id
    | Some i when id <> i -> fail "response id %d does not match outstanding %d" id i
    | Some i -> (
        match resp with
        | P.Overloaded _ ->
            (* admission control pushed back: retry the same request *)
            incr retries;
            enqueue_request requests c i
        | P.Bound_ok _ | P.Certify_ok _ | P.Sweep_ok _ | P.Simulate_ok _
        | P.Stats_ok _ | P.Failed _ ->
            latencies.(i) <- Unix.gettimeofday () -. c.first_send;
            responses.(i) <-
              FS.Json.to_string (P.response_to_json resp);
            incr completed;
            c.current <- None;
            issue_next c)
  in
  let drain_frames c =
    let rec go () =
      match P.Frame.Decoder.next c.decoder with
      | `Awaiting -> ()
      | `Corrupt msg -> fail "corrupt stream from server: %s" msg
      | `Frame payload ->
          (match P.decode_response payload with
          | Ok r -> handle_response c r
          | Error msg -> fail "undecodable response: %s" msg);
          go ()
    in
    go ()
  in
  let scratch = Bytes.create 65536 in
  let read_conn c =
    match Unix.read c.fd scratch 0 (Bytes.length scratch) with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error (err, _, _) ->
        fail "read: %s" (Unix.error_message err)
    | 0 -> fail "server closed the connection mid-run"
    | n ->
        P.Frame.Decoder.feed c.decoder scratch ~off:0 ~len:n;
        drain_frames c
  in
  let t0 = Unix.gettimeofday () in
  while !completed < o.requests do
    let live = Array.to_list conns in
    let rds =
      List.filter_map
        (fun c -> if Option.is_some c.current then Some c.fd else None)
        live
    in
    let wrs =
      List.filter_map
        (fun c -> if Buffer.length c.out - c.sent > 0 then Some c.fd else None)
        live
    in
    match Unix.select rds wrs [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        let by_fd = Hashtbl.create (Array.length conns) in
        Array.iter (fun c -> Hashtbl.replace by_fd c.fd c) conns;
        List.iter
          (fun fd ->
            match Hashtbl.find_opt by_fd fd with
            | Some c -> flush_writes c
            | None -> ())
          writable;
        List.iter
          (fun fd ->
            match Hashtbl.find_opt by_fd fd with
            | Some c -> read_conn c
            | None -> ())
          readable
  done;
  let wall = Unix.gettimeofday () -. t0 in
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  (* final server-side counters over a fresh connection *)
  let stats_json =
    Search_serve.Client.with_client ~socket_path:o.socket @@ fun cl ->
    let _, resp = Search_serve.Client.call cl ~id:o.requests P.Stats in
    P.response_to_json resp
  in
  (* digest over terminal response bytes of the deterministic requests,
     in schedule order — stats probes are observational and excluded *)
  let digest =
    let b = Buffer.create 4096 in
    Array.iteri
      (fun i s ->
        if not (is_stats requests.(i)) then begin
          Buffer.add_string b s;
          Buffer.add_char b '\n'
        end)
      responses;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let sorted = Array.copy latencies in
  Array.sort Float.compare sorted;
  (* [None] on an empty sample (a --requests 0 probe): the report gets
     JSON null and the console prints "n/a" instead of crashing on
     [sorted.(-1)] *)
  let p50 = FS.Stats.nearest_rank sorted ~p:50.
  and p99 = FS.Stats.nearest_rank sorted ~p:99. in
  let throughput = float_of_int o.requests /. wall in
  let percentile_json = function
    | None -> FS.Json.Null
    | Some v -> FS.Json.Number (v *. 1000.)
  in
  let percentile_cell = function
    | None -> "n/a"
    | Some v -> Printf.sprintf "%.2fms" (v *. 1000.)
  in
  let report =
    FS.Json.Assoc
      [
        ("bench", FS.Json.String "serve-load");
        ("socket", FS.Json.String o.socket);
        ("connections", FS.Json.Number (float_of_int (Array.length conns)));
        ("requests", FS.Json.Number (float_of_int o.requests));
        ("seed", FS.Json.Number (float_of_int o.seed));
        ("wall_seconds", FS.Json.Number wall);
        ("throughput_rps", FS.Json.Number throughput);
        ("p50_ms", percentile_json p50);
        ("p99_ms", percentile_json p99);
        ("overload_retries", FS.Json.Number (float_of_int !retries));
        ("response_digest", FS.Json.String digest);
        ("server_stats", stats_json);
      ]
  in
  Out_channel.with_open_text o.out (fun oc ->
      output_string oc (FS.Json.to_string ~pretty:true report);
      output_char oc '\n');
  (match o.history with
  | None -> ()
  | Some path ->
      let m = FS.Metrics.create ~jobs:(max 1 (Array.length conns)) () in
      FS.Metrics.record m ~experiment:"serve/wall" ~seconds:wall;
      (* percentile trend points only exist when there were requests *)
      Option.iter
        (fun v -> FS.Metrics.record m ~experiment:"serve/p50" ~seconds:v)
        p50;
      Option.iter
        (fun v -> FS.Metrics.record m ~experiment:"serve/p99" ~seconds:v)
        p99;
      FS.Metrics.append_history m ~path ~run:"serve-load");
  Printf.printf
    "serve-load: %d requests over %d connections in %.2fs (%.0f req/s)\n"
    o.requests (Array.length conns) wall throughput;
  Printf.printf "serve-load: p50 %s  p99 %s  retries %d\n"
    (percentile_cell p50) (percentile_cell p99) !retries;
  Printf.printf "serve-load: digest %s\n" digest;
  Printf.printf "serve-load: report written to %s\n" o.out
