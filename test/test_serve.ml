(* Tests for the serve subsystem: the wire codec (exact JSON roundtrip of
   every request/response variant), the incremental frame decoder (torn,
   oversized, negative-length, byte-at-a-time input), the bounded
   admission queue, the dispatcher's determinism contract (byte-identical
   responses at jobs 1 vs 4) and shared-cache accounting, and a live
   in-process end-to-end run over a real Unix-domain socket. *)

module P = Search_serve.Protocol
module Backlog = Search_serve.Backlog
module Dispatch = Search_serve.Dispatch
module Server = Search_serve.Server
module Client = Search_serve.Client
module Pool = Search_exec.Pool
module Supervise = Search_exec.Supervise
module Chaos = Search_resilience.Chaos
module Retry = Search_resilience.Retry
module Json = Search_numerics.Json
module E = Search_numerics.Search_error
module Runtime = Search_serve.Runtime

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* codec roundtrips *)

(* structural equality via the rendered bytes: decode the encoding, then
   re-encode and compare strings — exactly the property the daemon's
   determinism contract needs *)
let roundtrip_request req =
  let s = P.encode_request ~id:7 req in
  match P.decode_request s with
  | Ok (id, req') ->
      check_int "id echoed" 7 id;
      check_string "request re-encodes identically" s
        (P.encode_request ~id:7 req')
  | Error (_, msg) -> Alcotest.fail ("request did not decode: " ^ msg)

let roundtrip_response resp =
  let s = P.encode_response ~id:9 resp in
  match P.decode_response s with
  | Ok (id, resp') ->
      check_int "id echoed" 9 id;
      check_string "response re-encodes identically" s
        (P.encode_response ~id:9 resp')
  | Error msg -> Alcotest.fail ("response did not decode: " ^ msg)

let test_request_roundtrips () =
  List.iter roundtrip_request
    [
      P.Bound { m = 2; k = 3; f = 1 };
      P.Certify { m = 3; k = 4; f = 1; n = 200.; lambda = 5.25 };
      P.Sweep { m = 2; k = 3; f = 1; n = 1e4; samples = 11 };
      P.Simulate { beta = 3.59112; x = -250.5; samples = 64; seed = 12345 };
      P.Stats;
    ]

let sample_responses =
  [
    P.Bound_ok
      (P.bound_payload ~bound:5.233069471915198 ~regime:"searching"
         ~alpha_star:(Some 1.5874010519681994));
    (* the unsolvable regime really produces an infinite bound; it must
       survive the wire even though JSON has no Infinity literal *)
    P.Bound_ok
      (P.bound_payload ~bound:infinity ~regime:"unsolvable" ~alpha_star:None);
    P.Bound_ok
      (P.bound_payload ~bound:neg_infinity ~regime:"unsolvable"
         ~alpha_star:None);
    P.Certify_ok
      { verdict = "refuted-gap"; detail = "REFUTED: point 1.03"; bound = 5.2 };
    P.Sweep_ok { rows = [ [ "1.2"; "5.3"; "5.3" ]; [ "1.4"; "5.9"; "6.0" ] ] };
    P.Sweep_ok { rows = [] };
    P.Simulate_ok { estimate = 4.59112 };
    P.Stats_ok
      {
        served = 12; sheds = 3; batches = 4; max_batch = 5;
        cache = { hits = 9; misses = 2; evictions = 1; entries = 2; capacity = 8 };
        pool = { jobs = 4; submitted = 12; settled = 12; pending = 0 };
      };
    P.Overloaded { pending = 64; cap = 64 };
    P.Failed (E.Invalid_input { where = "serve/bound"; what = "bad k" });
    P.Failed
      (E.Budget_exceeded
         { task = "serve/req-3"; resource = E.Steps; limit = 10.; spent = 11. });
    P.Failed (E.Worker_crash { task = "serve/req-0"; attempt = 1; detail = "boom" });
  ]

let test_response_roundtrips () = List.iter roundtrip_response sample_responses

(* [encode_response] splices a cached [Bound_ok] rendering into the
   envelope; the bytes must be those of printing the whole envelope *)
let test_encode_response_matches_generic () =
  let generic ~id r =
    Json.to_string
      (Json.Assoc
         [ ("id", Json.Number (float_of_int id)); ("resp", P.response_to_json r) ])
  in
  let non_finite_bounds =
    List.map
      (fun (bound, alpha_star) ->
        P.Bound_ok (P.bound_payload ~bound ~regime:"searching" ~alpha_star))
      [
        (Float.nan, None); (infinity, Some Float.nan);
        (neg_infinity, Some infinity); (-0., Some neg_infinity);
      ]
  in
  List.iter
    (fun r ->
      (match r with
      | P.Bound_ok p ->
          check_string "wire is the body's rendering"
            (Json.to_string (P.response_to_json r))
            p.P.wire
      | _ -> ());
      List.iter
        (fun id ->
          check_string
            (Printf.sprintf "envelope bytes, id %d" id)
            (generic ~id r) (P.encode_response ~id r))
        [ 0; 9; -1; 1 lsl 50; max_int; min_int ])
    (sample_responses @ non_finite_bounds)

(* an integral id or field beyond an [int] must not wrap into another
   request's id (1e300 used to read as 0) *)
let test_out_of_range_integers_rejected () =
  (match
     P.decode_request {|{"id":1e300,"req":{"op":"bound","m":2,"k":3,"f":1}}|}
   with
  | Error (None, _) -> ()
  | Error (Some id, _) -> Alcotest.failf "id 1e300 decoded as %d" id
  | Ok (id, _) -> Alcotest.failf "envelope accepted with id %d" id);
  (match
     P.decode_request {|{"id":1,"req":{"op":"bound","m":1e19,"k":3,"f":1}}|}
   with
  | Error (Some 1, msg) ->
      check_string "m is refused" {|missing or non-integer field "m"|} msg
  | Error _ | Ok _ -> Alcotest.fail "m = 1e19 not refused for id 1");
  match P.decode_response {|{"id":-1e19,"resp":{"tag":"simulate","estimate":1}}|} with
  | Error _ -> ()
  | Ok (id, _) -> Alcotest.failf "response accepted with id %d" id

let test_nan_roundtrips_as_string () =
  (* NaN is spelled as the JSON string "nan"; build it from the wire side
     so the test itself never constructs the literal *)
  let wire = {|{"tag":"bound","bound":"nan","regime":"searching","alpha_star":null}|} in
  match P.decode_response ({|{"id":1,"resp":|} ^ wire ^ "}") with
  | Error e -> Alcotest.fail e
  | Ok (_, resp) ->
      let again = Json.to_string (P.response_to_json resp) in
      check_string "nan survives a decode/encode cycle" wire again;
      check_bool "decoded to a real NaN" true
        (match resp with P.Bound_ok b -> Float.is_nan b.P.bound | _ -> false)

let test_garbage_decodes_to_error () =
  (match P.decode_request "this is not json" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error (id, _) -> check_bool "no id recoverable" true (Option.is_none id));
  (* the envelope is intact, so the error is addressable to its id *)
  (match P.decode_request {|{"id":5,"req":{"op":"launch-missiles"}}|} with
  | Ok _ -> Alcotest.fail "unknown op accepted"
  | Error (Some id, _) -> check_int "id recovered from bad request" 5 id
  | Error (None, _) -> Alcotest.fail "id lost");
  (match P.decode_request {|{"id":6,"req":{"op":"bound","m":2,"k":"three","f":0}}|} with
  | Ok _ -> Alcotest.fail "bad field type accepted"
  | Error (Some id, _) -> check_int "id recovered from bad field" 6 id
  | Error (None, _) -> Alcotest.fail "id lost");
  match P.decode_response "[1,2,3]" with
  | Ok _ -> Alcotest.fail "non-envelope accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* framing *)

let test_frame_roundtrip_and_torn () =
  let payload = {|{"id":1,"req":{"op":"stats"}}|} in
  let frame = P.Frame.encode payload in
  let d = P.Frame.Decoder.create () in
  (* a torn frame: everything but the last byte *)
  P.Frame.Decoder.feed_string d (String.sub frame 0 (String.length frame - 1));
  (match P.Frame.Decoder.next d with
  | `Awaiting -> ()
  | `Frame _ | `Corrupt _ -> Alcotest.fail "torn frame should await more input");
  P.Frame.Decoder.feed_string d
    (String.sub frame (String.length frame - 1) 1);
  (match P.Frame.Decoder.next d with
  | `Frame got -> check_string "payload recovered" payload got
  | `Awaiting | `Corrupt _ -> Alcotest.fail "completed frame not delivered");
  match P.Frame.Decoder.next d with
  | `Awaiting -> ()
  | `Frame _ | `Corrupt _ -> Alcotest.fail "decoder should be drained"

let test_frame_byte_at_a_time () =
  let payloads = [ "alpha"; ""; String.make 300 'z' ] in
  let stream = String.concat "" (List.map P.Frame.encode payloads) in
  let d = P.Frame.Decoder.create () in
  let got = ref [] in
  String.iter
    (fun ch ->
      P.Frame.Decoder.feed_string d (String.make 1 ch);
      let rec drain () =
        match P.Frame.Decoder.next d with
        | `Frame p ->
            got := p :: !got;
            drain ()
        | `Awaiting -> ()
        | `Corrupt msg -> Alcotest.fail ("corrupt: " ^ msg)
      in
      drain ())
    stream;
  check_int "all frames recovered" (List.length payloads) (List.length !got);
  List.iter2 (fun want g -> check_string "payload" want g) payloads
    (List.rev !got)

(* the decoder must be chunking-blind: any adversarial fragmentation of
   the same stream recovers the same frames as one whole-stream feed *)
let test_frame_adversarial_chunkings () =
  let payloads =
    [
      P.encode_request ~id:1 (P.Bound { m = 2; k = 3; f = 1 });
      "";
      P.encode_request ~id:2
        (P.Certify { m = 3; k = 4; f = 1; n = 200.; lambda = 5.25 });
      String.make 300 'z';
      P.encode_response ~id:3 (P.Overloaded { pending = 9; cap = 8 });
    ]
  in
  let stream = String.concat "" (List.map P.Frame.encode payloads) in
  let decode_feeding feed =
    let d = P.Frame.Decoder.create () in
    let got = ref [] in
    let rec drain () =
      match P.Frame.Decoder.next d with
      | `Frame p ->
          got := p :: !got;
          drain ()
      | `Awaiting -> ()
      | `Corrupt msg -> Alcotest.fail ("corrupt: " ^ msg)
    in
    feed d drain;
    drain ();
    List.rev !got
  in
  let whole =
    decode_feeding (fun d _ -> P.Frame.Decoder.feed_string d stream)
  in
  check_int "whole-stream decode recovers all frames" (List.length payloads)
    (List.length whole);
  List.iter2 (fun want g -> check_string "payload" want g) payloads whole;
  let buf = Bytes.of_string stream in
  for seed = 0 to 49 do
    let chunked =
      decode_feeding (fun d drain ->
          let prng = ref (Search_numerics.Prng.make ~seed) in
          let pos = ref 0 in
          while !pos < Bytes.length buf do
            let rem = Bytes.length buf - !pos in
            let cut, p =
              Search_numerics.Prng.int ~bound:(Int.min rem 23) !prng
            in
            prng := p;
            let len = 1 + cut in
            (* drain between feeds too: interleaving feed/next must not
               disturb reassembly *)
            drain ();
            P.Frame.Decoder.feed d buf ~off:!pos ~len;
            pos := !pos + len
          done)
    in
    check_bool
      (Printf.sprintf "chunking seed %d matches whole-stream decode" seed)
      true
      (List.equal String.equal whole chunked)
  done

let test_frame_oversized_is_sticky_corrupt () =
  let d = P.Frame.Decoder.create ~max_frame:16 () in
  P.Frame.Decoder.feed_string d (P.Frame.encode (String.make 64 'x'));
  (match P.Frame.Decoder.next d with
  | `Corrupt msg -> check_bool "carries a message" true (String.length msg > 0)
  | `Frame _ | `Awaiting -> Alcotest.fail "oversized length not rejected");
  (* sticky: feeding more valid data does not resurrect the stream *)
  P.Frame.Decoder.feed_string d (P.Frame.encode "ok");
  match P.Frame.Decoder.next d with
  | `Corrupt _ -> ()
  | `Frame _ | `Awaiting -> Alcotest.fail "corrupt state must be sticky"

let test_frame_negative_length_is_corrupt () =
  let d = P.Frame.Decoder.create () in
  P.Frame.Decoder.feed_string d "\xff\xff\xff\xfejunk";
  match P.Frame.Decoder.next d with
  | `Corrupt _ -> ()
  | `Frame _ | `Awaiting -> Alcotest.fail "negative length not rejected"

(* ------------------------------------------------------------------ *)
(* backlog *)

let test_backlog_bounds_and_order () =
  let b = Backlog.create ~cap:3 () in
  check_int "cap" 3 (Backlog.cap b);
  List.iter
    (fun i ->
      match Backlog.push b i with
      | `Accepted -> ()
      | `Shed -> Alcotest.fail "shed below capacity")
    [ 1; 2; 3 ];
  (match Backlog.push b 4 with
  | `Shed -> ()
  | `Accepted -> Alcotest.fail "accepted beyond capacity");
  check_int "length" 3 (Backlog.length b);
  check_bool "fifo, bounded take" true (Backlog.take b ~max:2 = [ 1; 2 ]);
  check_bool "remainder" true (Backlog.take b ~max:10 = [ 3 ]);
  check_int "drained" 0 (Backlog.length b);
  (* capacity frees as items are taken *)
  match Backlog.push b 5 with
  | `Accepted -> ()
  | `Shed -> Alcotest.fail "shed after drain"

let test_backlog_rejects_bad_cap () =
  match Backlog.create ~cap:0 () with
  | _ -> Alcotest.fail "cap 0 accepted"
  | exception E.Error (E.Invalid_input _) -> ()

(* ------------------------------------------------------------------ *)
(* dispatcher *)

let mixed_batch =
  [
    P.Bound { m = 2; k = 3; f = 1 };
    P.Certify { m = 2; k = 3; f = 1; n = 200.; lambda = 5.0 };
    P.Bound { m = 2; k = 1; f = 1 };  (* unsolvable: infinite bound *)
    P.Simulate { beta = 3.5; x = 500.; samples = 32; seed = 11 };
    P.Sweep { m = 2; k = 3; f = 1; n = 100.; samples = 3 };
    P.Bound { m = 2; k = 0; f = 0 };  (* invalid: structured Failed *)
    P.Certify { m = 2; k = 8; f = 1; n = 100.; lambda = 2.0 };
    (* ratio-one regime: Regime_violation *)
    P.Stats;
    P.Bound { m = 2; k = 3; f = 1 };  (* repeat: cache hit on batch 2 *)
    (* lambda <= 1 is refused at the boundary, before any kernel runs *)
    P.Certify { m = 2; k = 3; f = 1; n = 200.; lambda = 0.5 };
    P.Certify { m = 2; k = 3; f = 1; n = 200.; lambda = 1.0 };
    P.Certify { m = 3; k = 2; f = 0; n = 200.; lambda = 0.9 };
    (* one past the per-request sample caps: refused before any work *)
    P.Simulate { beta = 3.5; x = 500.; samples = 100_001; seed = 11 };
    P.Sweep { m = 2; k = 3; f = 1; n = 100.; samples = 1_001 };
    (* a horizon past the sweep cap: its cost grows with log n *)
    P.Sweep { m = 2; k = 3; f = 1; n = 1e300; samples = 20 };
  ]

let mixed_items = List.mapi (fun i req -> ((), i, req)) mixed_batch

let render batch =
  List.map
    (fun ((), id, resp) -> (id, Json.to_string (P.response_to_json resp)))
    batch

let run_mixed ~jobs =
  Pool.with_pool ~jobs @@ fun pool ->
  let d = Dispatch.create ~pool ~cache_capacity:8 () in
  (* two identical batches: the second's Bound requests must hit the
     shared cache without changing a byte of any response *)
  let batch1 = Dispatch.handle_batch d mixed_items in
  let batch2 = Dispatch.handle_batch d mixed_items in
  (render batch1, render batch2, Dispatch.stats d)

let is_stats_req i = i = 7 (* index of P.Stats in mixed_batch *)

let test_dispatch_jobs_invariant () =
  let b1_j1, b2_j1, _ = run_mixed ~jobs:1 in
  let b1_j4, b2_j4, _ = run_mixed ~jobs:4 in
  let compare_runs a b =
    List.iter2
      (fun (id_a, s_a) (id_b, s_b) ->
        check_int "ids align" id_a id_b;
        if not (is_stats_req id_a) then
          check_string
            (Printf.sprintf "response %d byte-identical across jobs" id_a)
            s_a s_b)
      a b
  in
  compare_runs b1_j1 b1_j4;
  compare_runs b2_j1 b2_j4;
  (* caching is invisible in the bytes: batch 2 = batch 1 *)
  compare_runs b1_j1 b2_j1

let test_dispatch_failure_shapes () =
  let b1, _, _ = run_mixed ~jobs:2 in
  let find i = snd (List.nth b1 i) in
  check_bool "unsolvable bound is served, not failed" true
    (String.length (find 2) > 0
    &&
    match Json.of_string (find 2) with
    | Ok j -> (
        match Json.member "bound" j with
        | Some (Json.String s) -> String.equal s "inf"
        | _ -> false)
    | Error _ -> false);
  (* Failed responses carry the Search_error JSON, whose own tag lives
     under the payload's "error" field *)
  let error_tag rendered =
    match Json.of_string rendered with
    | Ok j -> (
        match Json.member "error" j with
        | Some err -> (
            match Json.member "error" err with
            | Some (Json.String t) -> Some t
            | _ -> None)
        | None -> None)
    | Error _ -> None
  in
  check_bool "invalid instance fails with regime-violation" true
    (match error_tag (find 5) with
    | Some t -> String.equal t "regime-violation"
    | None -> false);
  check_bool "ratio-one certify fails with regime-violation" true
    (match error_tag (find 6) with
    | Some t -> String.equal t "regime-violation"
    | None -> false);
  let error_where rendered =
    match Json.of_string rendered with
    | Ok j -> (
        match Option.bind (Json.member "error" j) (Json.member "where") with
        | Some (Json.String w) -> Some w
        | _ -> None)
    | Error _ -> None
  in
  List.iter
    (fun i ->
      check_bool
        (Printf.sprintf "certify %d: lambda <= 1 is invalid-input" i)
        true
        (match error_tag (find i) with
        | Some t -> String.equal t "invalid-input"
        | None -> false);
      check_bool
        (Printf.sprintf "certify %d: refused at serve/certify" i)
        true
        (match error_where (find i) with
        | Some w -> String.equal w "serve/certify"
        | None -> false))
    [ 9; 10; 11 ];
  List.iter
    (fun (i, where) ->
      check_bool
        (Printf.sprintf "request %d: over a per-request cap is invalid-input" i)
        true
        (match error_tag (find i) with
        | Some t -> String.equal t "invalid-input"
        | None -> false);
      check_bool
        (Printf.sprintf "request %d: refused at %s" i where)
        true
        (match error_where (find i) with
        | Some w -> String.equal w where
        | None -> false))
    [ (12, "serve/simulate"); (13, "serve/sweep"); (14, "serve/sweep") ]

(* Chaos on the serve path: with one more attempt than the worst-case
   fault count, every response is byte-identical to the fault-free run
   at any job count; without retries the injected faults surface as
   typed [Failed] responses. *)
let test_dispatch_chaos () =
  let chaos = Chaos.make ~seed:42 () in
  let one_batch ?spec ~jobs () =
    Pool.with_pool ~jobs @@ fun pool ->
    let d = Dispatch.create ~pool ~cache_capacity:8 ?spec () in
    Dispatch.handle_batch d mixed_items
  in
  List.iter
    (fun jobs ->
      let plain = render (one_batch ~spec:Supervise.default ~jobs ()) in
      let recovered =
        render
          (one_batch
             ~spec:
               {
                 Supervise.default with
                 chaos;
                 retry = Retry.immediate ~attempts:(Chaos.max_faults chaos + 1);
               }
             ~jobs ())
      in
      List.iter2
        (fun (id, a) (_, b) ->
          if not (is_stats_req id) then
            check_string
              (Printf.sprintf "jobs %d: response %d survives chaos" jobs id)
              a b)
        plain recovered)
    [ 1; 4 ];
  let degraded =
    one_batch ~spec:{ Supervise.default with chaos } ~jobs:2 ()
  in
  check_bool "without retries some request fails with an injected fault"
    true
    (List.exists
       (function
         | (), _, P.Failed (E.Injected_fault _) -> true | _ -> false)
       degraded)

let test_dispatch_cache_accounting () =
  let _, _, stats = run_mixed ~jobs:2 in
  check_bool "cache hits observed" true (stats.P.cache.P.hits > 0);
  check_bool "misses bounded by distinct bound keys" true
    (stats.P.cache.P.misses >= 3);
  check_int "served both batches" 30 stats.P.served;
  check_int "two batches" 2 stats.P.batches;
  check_int "max batch" 15 stats.P.max_batch;
  check_bool "pool settled everything" true
    (stats.P.pool.P.pending = 0
    && stats.P.pool.P.submitted = stats.P.pool.P.settled)

(* ------------------------------------------------------------------ *)
(* socket-path ownership: one contract, real and simulated runtimes *)

(* What [listen] does at [path] after [setup] prepared it: "listens", or
   the typed refusal.  A listener [setup] holds open (the live case) is
   closed and its path unlinked afterwards. *)
let listen_outcome (type fd) (ops : fd Runtime.ops) ~path setup =
  let held = setup () in
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun l ->
          ops.Runtime.close l;
          ops.Runtime.unlink path)
        held)
    (fun () ->
      match ops.Runtime.listen ~path with
      | fd ->
          ops.Runtime.close fd;
          ops.Runtime.unlink path;
          "listens"
      | exception E.Error e -> E.to_string e)

let check_listen_cases (type fd) runtime (ops : fd Runtime.ops) ~path =
  List.iter
    (fun (name, setup, expected) ->
      check_string (runtime ^ ": " ^ name) expected
        (listen_outcome ops ~path setup))
    [
      ("free path", (fun () -> None), "listens");
      ( "live socket",
        (fun () -> Some (ops.Runtime.listen ~path)),
        Printf.sprintf "[io-failure] %s: bind: address already in use" path );
      ( "stale socket",
        (fun () ->
          ops.Runtime.close (ops.Runtime.listen ~path);
          None),
        "listens" );
    ]

let test_listen_owns_only_its_socket () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fs-claim-test-%d.sock" (Unix.getpid ()))
  in
  check_listen_cases "unix" Runtime.unix ~path;
  let sim = Search_dst.Sim.create ~prng:(Search_numerics.Prng.make ~seed:1) in
  let net =
    Search_dst.Net.create ~sim ~prng:(Search_numerics.Prng.make ~seed:2)
      ~faults:false
  in
  check_listen_cases "dst" (Search_dst.Net.ops net) ~path;
  (* a regular file is refused and left byte-identical (the simulated
     network has no files) *)
  let contents = "not a socket\n" in
  Fixture.write_file path contents;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      check_string "unix: regular file"
        (Printf.sprintf "[invalid-input] listen: %s exists and is not a socket"
           path)
        (listen_outcome Runtime.unix ~path (fun () -> None));
      let ic = open_in_bin path in
      let after =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      check_string "regular file untouched" contents after)

(* ------------------------------------------------------------------ *)
(* end-to-end over a real socket *)

(* Wait until the daemon accepts connections.  The socket file appears
   at [bind], one syscall before [listen], so polling for the file races
   a connect into ECONNREFUSED; a successful probe connect does not. *)
let await_listening sock =
  let rec go tries =
    match Client.connect ~socket_path:sock () with
    | c -> Client.close c
    | exception E.Error (E.Io_failure _) when tries > 0 ->
        Unix.sleepf 0.02;
        go (tries - 1)
  in
  go 250

let test_server_end_to_end () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fs-serve-test-%d.sock" (Unix.getpid ()))
  in
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let dispatch = Dispatch.create ~pool ~cache_capacity:16 () in
  let stop = Atomic.make false in
  let config = Server.config ~socket_path:sock () in
  let server = Domain.spawn (fun () -> Server.run config ~dispatch ~stop) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join server)
    (fun () ->
      await_listening sock;
      Client.with_client ~socket_path:sock (fun c ->
          (* single call *)
          let id, resp = Client.call c ~id:3 (P.Bound { m = 2; k = 3; f = 1 }) in
          check_int "id echoed" 3 id;
          (match resp with
          | P.Bound_ok b -> check_string "regime" "searching" b.P.regime
          | _ -> Alcotest.fail "expected Bound_ok");
          (* pipelined: several requests in flight on one connection;
             responses come back in request order *)
          List.iter
            (fun i -> Client.send c ~id:i (P.Bound { m = 2; k = 3; f = 1 }))
            [ 10; 11; 12; 13 ];
          List.iter
            (fun i ->
              let id, resp = Client.recv c in
              check_int "pipelined order" i id;
              match resp with
              | P.Bound_ok _ -> ()
              | _ -> Alcotest.fail "expected Bound_ok")
            [ 10; 11; 12; 13 ];
          (* a malformed frame gets a structured error, and the
             connection survives it *)
          Client.send c ~id:20 P.Stats;
          let _, resp = Client.recv c in
          (match resp with
          | P.Stats_ok s -> check_bool "served some" true (s.P.served > 0)
          | _ -> Alcotest.fail "expected Stats_ok"));
      (* a second client on a fresh connection shares the same daemon *)
      Client.with_client ~socket_path:sock (fun c ->
          let _, _ = Client.call c ~id:1 (P.Bound { m = 2; k = 3; f = 1 }) in
          ()));
  check_bool "socket removed on shutdown" true (not (Sys.file_exists sock))

(* regression: Server.run's teardown must close the listener AND every
   live connection fd, even when clients are still connected at stop
   time — counted via /proc/self/fd (skipped where /proc is absent) *)
let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_server_teardown_closes_connection_fds () =
  if not (Sys.file_exists "/proc/self/fd") then ()
  else begin
    let sock =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "fs-serve-fds-%d.sock" (Unix.getpid ()))
    in
    Pool.with_pool ~jobs:1 @@ fun pool ->
    let baseline = count_fds () in
    let dispatch = Dispatch.create ~pool () in
    let stop = Atomic.make false in
    let config = Server.config ~socket_path:sock () in
    let server = Domain.spawn (fun () -> Server.run config ~dispatch ~stop) in
    await_listening sock;
    (* three clients, all still connected when the server stops *)
    let clients =
      List.init 3 (fun i ->
          let c = Client.connect ~socket_path:sock () in
          let id, _ = Client.call c ~id:i (P.Bound { m = 2; k = 3; f = 1 }) in
          check_int "served before shutdown" i id;
          c)
    in
    check_bool "connections hold fds while live" true (count_fds () > baseline);
    Atomic.set stop true;
    Domain.join server;
    (* server side fully torn down: only the 3 client-side fds remain *)
    List.iter Client.close clients;
    check_int "no fd leaked by server teardown" baseline (count_fds ());
    check_bool "socket file removed" true (not (Sys.file_exists sock))
  end

let test_server_rejects_malformed_frame () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fs-serve-mal-%d.sock" (Unix.getpid ()))
  in
  Pool.with_pool ~jobs:1 @@ fun pool ->
  let dispatch = Dispatch.create ~pool () in
  let stop = Atomic.make false in
  let config = Server.config ~socket_path:sock () in
  let server = Domain.spawn (fun () -> Server.run config ~dispatch ~stop) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join server)
    (fun () ->
      await_listening sock;
      (* garbage JSON inside a well-formed frame: structured error back,
         connection stays up for the next (valid) request *)
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let send_raw s =
        let rec go off =
          if off < String.length s then
            go (off + Unix.write_substring fd s off (String.length s - off))
        in
        go 0
      in
      let d = P.Frame.Decoder.create () in
      let scratch = Bytes.create 4096 in
      let rec recv_one () =
        match P.Frame.Decoder.next d with
        | `Frame payload -> payload
        | `Corrupt msg -> Alcotest.fail ("client-side corrupt: " ^ msg)
        | `Awaiting ->
            let n = Unix.read fd scratch 0 (Bytes.length scratch) in
            if n = 0 then Alcotest.fail "server hung up early"
            else begin
              P.Frame.Decoder.feed d scratch ~off:0 ~len:n;
              recv_one ()
            end
      in
      send_raw (P.Frame.encode "totally not json");
      (match P.decode_response (recv_one ()) with
      | Ok (id, P.Failed (E.Invalid_input _)) ->
          check_int "unaddressable error uses id -1" (-1) id
      | Ok _ -> Alcotest.fail "expected a Failed response"
      | Error e -> Alcotest.fail ("undecodable error response: " ^ e));
      send_raw (P.Frame.encode (P.encode_request ~id:2 P.Stats));
      (match P.decode_response (recv_one ()) with
      | Ok (2, P.Stats_ok _) -> ()
      | Ok _ -> Alcotest.fail "connection did not survive the bad frame"
      | Error e -> Alcotest.fail ("undecodable response: " ^ e));
      Unix.close fd)

(* ------------------------------------------------------------------ *)

let tc name speed fn = Alcotest.test_case name speed fn

let () =
  Alcotest.run "serve"
    [
      ( "codec",
        [
          tc "every request variant roundtrips" `Quick test_request_roundtrips;
          tc "every response variant roundtrips" `Quick
            test_response_roundtrips;
          tc "nan crosses the wire as a string" `Quick
            test_nan_roundtrips_as_string;
          tc "garbage decodes to an addressable error" `Quick
            test_garbage_decodes_to_error;
          tc "encode_response bytes match the generic printer" `Quick
            test_encode_response_matches_generic;
          tc "out-of-range integers are refused, not wrapped" `Quick
            test_out_of_range_integers_rejected;
        ] );
      ( "framing",
        [
          tc "torn frames await more input" `Quick
            test_frame_roundtrip_and_torn;
          tc "byte-at-a-time reassembly" `Quick test_frame_byte_at_a_time;
          tc "adversarial chunkings match whole-stream decode" `Quick
            test_frame_adversarial_chunkings;
          tc "oversized length is sticky corrupt" `Quick
            test_frame_oversized_is_sticky_corrupt;
          tc "negative length is corrupt" `Quick
            test_frame_negative_length_is_corrupt;
        ] );
      ( "backlog",
        [
          tc "bounded fifo with shed" `Quick test_backlog_bounds_and_order;
          tc "rejects cap < 1" `Quick test_backlog_rejects_bad_cap;
        ] );
      ( "dispatch",
        [
          tc "responses byte-identical at jobs 1 vs 4" `Quick
            test_dispatch_jobs_invariant;
          tc "failures are structured, not fatal" `Quick
            test_dispatch_failure_shapes;
          tc "shared cache hits and counters" `Quick
            test_dispatch_cache_accounting;
          tc "chaos with retries is invisible in the bytes" `Quick
            test_dispatch_chaos;
        ] );
      ( "server",
        [
          tc "end-to-end calls, pipelining, clean shutdown" `Quick
            test_server_end_to_end;
          tc "teardown closes every live connection fd" `Quick
            test_server_teardown_closes_connection_fds;
          tc "malformed frames get structured errors" `Quick
            test_server_rejects_malformed_frame;
          tc "listen owns only its own socket" `Quick
            test_listen_owns_only_its_socket;
        ] );
    ]
