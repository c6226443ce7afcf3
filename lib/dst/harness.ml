module E = Search_numerics.Search_error
module Json = Search_numerics.Json
module Prng = Search_numerics.Prng
module Pool = Search_exec.Pool
module P = Search_serve.Protocol
module Server = Search_serve.Server
module Client = Search_serve.Client
module Dispatch = Search_serve.Dispatch
module Runtime = Search_serve.Runtime

let socket_path = "/sim/faulty-search.sock"

(* ------------------------------------------------------------------ *)
(* scenarios                                                           *)

type scenario = {
  seed : int;
  clients : int;
  requests : int;  (** per client *)
  faults : bool;
  jobs : int;
  queue_cap : int;
  batch_cap : int;
  cache_cap : int;
  light : bool;  (** restrict the mix to cheap ops (fuzz-sized scenarios) *)
  inject : string option;  (** intentional server bug, to validate the oracles *)
}

let scenario ?(seed = 0) ?(clients = 8) ?(requests = 6) ?(faults = false)
    ?(jobs = 1) ?(queue_cap = 8) ?(batch_cap = 8) ?(cache_cap = 64)
    ?(light = false) ?inject () =
  if clients < 1 then E.invalid ~where:"Dst.scenario" "need clients >= 1";
  if requests < 1 then E.invalid ~where:"Dst.scenario" "need requests >= 1";
  if jobs < 1 then E.invalid ~where:"Dst.scenario" "need jobs >= 1";
  if queue_cap < 1 then E.invalid ~where:"Dst.scenario" "need queue_cap >= 1";
  if batch_cap < 1 then E.invalid ~where:"Dst.scenario" "need batch_cap >= 1";
  if cache_cap < 1 then E.invalid ~where:"Dst.scenario" "need cache_cap >= 1";
  { seed; clients; requests; faults; jobs; queue_cap; batch_cap; cache_cap;
    light; inject }

let scenario_to_json sc =
  Json.Assoc
    [
      ("kind", Json.String "dst-scenario");
      ("version", Json.Number 1.);
      ("seed", Json.Number (float_of_int sc.seed));
      ("clients", Json.Number (float_of_int sc.clients));
      ("requests", Json.Number (float_of_int sc.requests));
      ("faults", Json.Bool sc.faults);
      ("jobs", Json.Number (float_of_int sc.jobs));
      ("queue_cap", Json.Number (float_of_int sc.queue_cap));
      ("batch_cap", Json.Number (float_of_int sc.batch_cap));
      ("cache_cap", Json.Number (float_of_int sc.cache_cap));
      ("light", Json.Bool sc.light);
      ( "inject",
        match sc.inject with None -> Json.Null | Some s -> Json.String s );
    ]

let scenario_of_json j =
  let int_field name fallback =
    match Option.bind (Json.member name j) Json.to_int with
    | Some v -> v
    | None -> fallback
  in
  let bool_field name fallback =
    match Option.bind (Json.member name j) Json.to_bool with
    | Some v -> v
    | None -> fallback
  in
  match Option.bind (Json.member "kind" j) Json.to_string_value with
  | Some "dst-scenario" ->
      let inject =
        Option.bind (Json.member "inject" j) Json.to_string_value
      in
      Ok
        {
          seed = int_field "seed" 0;
          clients = int_field "clients" 2;
          requests = int_field "requests" 2;
          faults = bool_field "faults" false;
          jobs = int_field "jobs" 1;
          queue_cap = int_field "queue_cap" 8;
          batch_cap = int_field "batch_cap" 8;
          cache_cap = int_field "cache_cap" 64;
          light = bool_field "light" false;
          inject;
        }
  | Some k -> Error (Printf.sprintf "not a dst-scenario (kind = %S)" k)
  | None -> Error "missing \"kind\" field"

(* ------------------------------------------------------------------ *)
(* workload: the serve_load mix (bench/serve_load.ml), or a cheap
   subset for fuzz-sized scenarios *)

let gen_request ~light prng =
  let roll, prng = Prng.int ~bound:100 prng in
  let roll = if light && roll >= 50 && roll < 95 then 100 - roll else roll in
  if roll < 50 then begin
    let mi, prng = Prng.int ~bound:2 prng in
    let ki, prng = Prng.int ~bound:4 prng in
    let fi, prng = Prng.int ~bound:3 prng in
    let k = 1 + ki in
    let f = if fi > k then k else fi in
    (P.Bound { m = 2 + mi; k; f }, prng)
  end
  else if light then begin
    (* rolls folded into [50, 95): simulate with a small sample count *)
    let b, prng = Prng.float_range ~lo:2.0 ~hi:5.0 prng in
    let xi, prng = Prng.int ~bound:900 prng in
    let s, prng = Prng.int ~bound:1000000 prng in
    if roll >= 95 then (P.Stats, prng)
    else
      ( P.Simulate
          { beta = b; x = float_of_int (100 + xi); samples = 8; seed = s },
        prng )
  end
  else if roll < 70 then begin
    let l, prng = Prng.float_range ~lo:4.0 ~hi:6.0 prng in
    (P.Certify { m = 2; k = 3; f = 1; n = 200.; lambda = l }, prng)
  end
  else if roll < 85 then begin
    let b, prng = Prng.float_range ~lo:2.0 ~hi:5.0 prng in
    let xi, prng = Prng.int ~bound:900 prng in
    let s, prng = Prng.int ~bound:1000000 prng in
    ( P.Simulate
        { beta = b; x = float_of_int (100 + xi); samples = 64; seed = s },
      prng )
  end
  else if roll < 95 then
    (P.Sweep { m = 2; k = 3; f = 1; n = 100.; samples = 5 }, prng)
  else (P.Stats, prng)

let request_tag = function
  | P.Bound _ -> "bound"
  | P.Certify _ -> "certify"
  | P.Sweep _ -> "sweep"
  | P.Simulate _ -> "simulate"
  | P.Stats -> "stats"

let response_tag = function
  | P.Bound_ok _ -> "bound_ok"
  | P.Certify_ok _ -> "certify_ok"
  | P.Sweep_ok _ -> "sweep_ok"
  | P.Simulate_ok _ -> "simulate_ok"
  | P.Stats_ok _ -> "stats_ok"
  | P.Overloaded _ -> "overloaded"
  | P.Failed _ -> "failed"

(* ------------------------------------------------------------------ *)
(* fault injection: deliberately broken runtimes used to validate that
   the oracles actually catch whole-system bugs *)

let nonempty = function [] -> false | _ :: _ -> true

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.equal (String.sub hay i nn) needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

let injections = [ "drop-shed-response" ]

let wrap_inject inject runtime =
  match inject with
  | None -> runtime
  | Some "drop-shed-response" -> (
      match runtime with
      | Runtime.T ops ->
          (* the bug: the event loop's write path silently swallows any
             buffer that carries an [Overloaded] response — the client
             that was shed waits forever.  Client-side (blocking) writes
             are untouched. *)
          Runtime.T
            {
              ops with
              Runtime.write =
                (fun fd s ~off ~len ->
                  if contains_sub (String.sub s off len) "\"overloaded\"" then
                    `Wrote len
                  else ops.Runtime.write fd s ~off ~len);
            })
  | Some other -> E.invalid ~where:"Dst.Harness" ("unknown injection: " ^ other)

(* ------------------------------------------------------------------ *)
(* outcomes                                                            *)

type outcome = {
  scenario : scenario;
  violations : string list;
  trace : string;
  digest : string;  (** over terminal response bytes, stats excluded *)
  served : int;
  overloaded_gaveup : int;
  conn_errors : int;
}

type slot = Pending | Served of string | Overload_gaveup | Conn_error

(* Virtual-time horizon: every healthy request resolves in well under a
   virtual second (delays are sub-millisecond and compute costs zero
   virtual time), so a request still pending at the client deadline is
   genuinely stuck, not slow. *)
let client_deadline = 30.0
let sim_deadline = 120.0

let run sc =
  Pool.with_pool ~jobs:sc.jobs @@ fun pool ->
  let root = Prng.make ~seed:sc.seed in
  let sched_prng, rest = Prng.split root in
  let net_prng, work_prng = Prng.split rest in
  let sim = Sim.create ~prng:sched_prng in
  let net = Net.create ~sim ~prng:net_prng ~faults:sc.faults in
  let runtime = wrap_inject sc.inject (Net.runtime net) in
  let dispatch = Dispatch.create ~pool ~cache_capacity:sc.cache_cap () in
  let trace = Buffer.create 4096 in
  let tr fmt =
    Printf.ksprintf
      (fun line -> Buffer.add_string trace
          (Printf.sprintf "[%.6f] %s\n" (Sim.now sim) line))
      fmt
  in
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf
      (fun line ->
        violations := line :: !violations;
        tr "VIOLATION %s" line)
      fmt
  in
  let config =
    Server.config ~queue_cap:sc.queue_cap ~batch_cap:sc.batch_cap
      ~socket_path
      ~log:(fun msg -> tr "server: %s" msg)
      ()
  in
  let stop = Atomic.make false in
  let server_done = ref false in
  Sim.spawn sim ~name:"server" (fun () ->
      Fun.protect
        ~finally:(fun () -> server_done := true)
        (fun () -> Server.run ~runtime config ~dispatch ~stop));
  (* per-request bookkeeping, indexed [client][request] *)
  let slots = Array.make_matrix sc.clients sc.requests Pending in
  let reqs =
    Array.make_matrix sc.clients sc.requests P.Stats
  in
  let done_clients = ref 0 in
  let conn_errors = ref 0 in
  let id_of ~client ~idx = (client * 100000) + idx in
  let client_prngs =
    let prng = ref work_prng in
    Array.init sc.clients (fun _ ->
        let mine, rest = Prng.split !prng in
        prng := rest;
        mine)
  in
  let spawn_client i =
    Sim.spawn sim ~name:(Printf.sprintf "client-%d" i) @@ fun () ->
    let prng = ref client_prngs.(i) in
    let draw f =
      let v, p = f !prng in
      prng := p;
      v
    in
    let conn = ref None in
    let close_conn () =
      match !conn with
      | Some c ->
          conn := None;
          Client.close c
      | None -> ()
    in
    let connect_retry () =
      let rec go attempts =
        match Client.connect ~runtime ~socket_path () with
        | c ->
            conn := Some c;
            true
        | exception E.Error _ ->
            if attempts >= 50 then false
            else begin
              Sim.sleep sim 0.002;
              go (attempts + 1)
            end
      in
      match !conn with Some _ -> true | None -> go 0
    in
    Fun.protect ~finally:(fun () ->
        close_conn ();
        incr done_clients)
    @@ fun () ->
    for idx = 0 to sc.requests - 1 do
      reqs.(i).(idx) <- draw (gen_request ~light:sc.light)
    done;
    (* pipelined rounds: burst every unresolved request onto the
       connection, then collect responses; shed requests retry next
       round with backoff.  The burst is what makes admission control
       fire — compute costs zero virtual time, so closed-loop clients
       could never overload the queue. *)
    let max_rounds = 9 in
    let todo () =
      let acc = ref [] in
      for idx = sc.requests - 1 downto 0 do
        match slots.(i).(idx) with
        | Pending -> acc := idx :: !acc
        | Served _ | Overload_gaveup | Conn_error -> ()
      done;
      !acc
    in
    (* why the last attempt at each request failed, deciding its
       terminal outcome when retry rounds run out *)
    let last_fail = Array.make sc.requests `Shed in
    let finalize idxs =
      List.iter
        (fun idx ->
          match slots.(i).(idx) with
          | Pending -> (
              match last_fail.(idx) with
              | `Shed -> slots.(i).(idx) <- Overload_gaveup
              | `Conn ->
                  incr conn_errors;
                  slots.(i).(idx) <- Conn_error)
          | Served _ | Overload_gaveup | Conn_error -> ())
        idxs
    in
    let round = ref 0 in
    let continue = ref true in
    while !continue && nonempty (todo ()) do
      let idxs = todo () in
      if !round >= max_rounds then begin
        finalize idxs;
        continue := false
      end
      else if not (connect_retry ()) then begin
        tr "client %d: cannot connect, %d requests abandoned" i
          (List.length idxs);
        List.iter (fun idx -> last_fail.(idx) <- `Conn) idxs;
        finalize idxs;
        continue := false
      end
      else begin
        let c = Option.get !conn in
        (match
           List.iter
             (fun idx ->
               tr "client %d: sent id %d %s"
                 i
                 (id_of ~client:i ~idx)
                 (request_tag reqs.(i).(idx));
               Client.send c ~id:(id_of ~client:i ~idx) reqs.(i).(idx))
             idxs;
           List.iter
             (fun _ ->
               let rid, resp = Client.recv c in
               tr "client %d: recv id %d %s" i rid (response_tag resp);
               let idx = rid - id_of ~client:i ~idx:0 in
               if idx < 0 || idx >= sc.requests
                  || not (Int.equal rid (id_of ~client:i ~idx))
               then violate "client %d: response for foreign id %d" i rid
               else
                 match slots.(i).(idx) with
                 | Pending -> (
                     match resp with
                     | P.Overloaded _ -> last_fail.(idx) <- `Shed
                     | P.Stats_ok _ -> slots.(i).(idx) <- Served "<stats>"
                     | P.Bound_ok _ | P.Certify_ok _ | P.Sweep_ok _
                     | P.Simulate_ok _ | P.Failed _ ->
                         slots.(i).(idx) <-
                           Served (P.encode_response ~id:rid resp))
                 | Served _ | Overload_gaveup | Conn_error ->
                     violate "client %d: second response for id %d" i rid)
             idxs
         with
        | () -> ()
        | exception E.Error err ->
            tr "client %d: connection error: %s" i (E.to_string err);
            (* unanswered requests are retried on a fresh connection
               next round: they are pure, so a re-send after a lost
               response is indistinguishable from a slow first try *)
            List.iter
              (fun idx ->
                match slots.(i).(idx) with
                | Pending -> last_fail.(idx) <- `Conn
                | Served _ | Overload_gaveup | Conn_error -> ())
              idxs;
            close_conn ());
        if nonempty (todo ()) then
          Sim.sleep sim (0.002 *. float_of_int (!round + 1));
        incr round
      end
    done
  in
  for i = 0 to sc.clients - 1 do
    spawn_client i
  done;
  (* supervisor: wait for the clients (bounded by the virtual deadline),
     flag stuck requests, then stop the daemon *)
  Sim.spawn sim ~name:"supervisor" (fun () ->
      while !done_clients < sc.clients && Sim.now sim < client_deadline do
        Sim.sleep sim 0.01
      done;
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun idx s ->
              match s with
              | Pending ->
                  violate
                    "client %d: request id %d (%s) has no terminal outcome"
                    i
                    (id_of ~client:i ~idx)
                    (request_tag reqs.(i).(idx))
              | Served _ | Overload_gaveup | Conn_error -> ())
            row)
        slots;
      tr "supervisor: stop";
      Atomic.set stop true);
  (match Sim.run sim ~deadline:sim_deadline with
  | `Quiescent -> ()
  | `Deadline ->
      violate "simulation hit the %.0fs virtual deadline (stuck fiber)"
        sim_deadline);
  (* whole-system shutdown oracles *)
  List.iter
    (fun (name, e) ->
      violate "fiber %s crashed: %s" name (Printexc.to_string e))
    (Sim.crashes sim);
  if not !server_done then violate "server still running after shutdown";
  if Net.socket_bound net socket_path then
    violate "socket file still bound after shutdown";
  (match Net.open_fds net with
  | [] -> ()
  | fds -> violate "%d simulated fds leaked after shutdown" (List.length fds));
  (* response oracle: every computed response byte-identical to a fresh
     reference evaluation of the same request (stats and overloaded are
     observational and exempt; see the Protocol determinism contract) *)
  let reference = Dispatch.create ~pool ~cache_capacity:sc.cache_cap () in
  let served = ref 0 and gaveup = ref 0 in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun idx s ->
          match s with
          | Served "<stats>" -> incr served
          | Served bytes -> (
              incr served;
              let id = id_of ~client:i ~idx in
              match Dispatch.handle_batch reference [ ((), id, reqs.(i).(idx)) ] with
              | [ ((), rid, resp) ] ->
                  let expect = P.encode_response ~id:rid resp in
                  if not (String.equal bytes expect) then
                    violate
                      "client %d: response for id %d differs from reference \
                       (got %d bytes, want %d)"
                      i id (String.length bytes) (String.length expect)
              | _ -> violate "reference dispatch returned a non-singleton")
          | Overload_gaveup -> incr gaveup
          | Conn_error | Pending -> ())
        row)
    slots;
  let digest =
    let buf = Buffer.create 1024 in
    Array.iteri
      (fun i row ->
        Array.iteri
          (fun idx s ->
            match s with
            | Served bytes ->
                Buffer.add_string buf (Printf.sprintf "%d.%d:" i idx);
                Buffer.add_string buf bytes
            | Overload_gaveup ->
                Buffer.add_string buf (Printf.sprintf "%d.%d:overload" i idx)
            | Conn_error ->
                Buffer.add_string buf (Printf.sprintf "%d.%d:conn-error" i idx)
            | Pending ->
                Buffer.add_string buf (Printf.sprintf "%d.%d:pending" i idx))
          row)
      slots;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  let c = Net.counters net in
  tr "net: chunks=%d reorders=%d drops=%d crashes=%d partial_writes=%d"
    c.Net.chunks c.Net.reorders c.Net.drops c.Net.crashes c.Net.partial_writes;
  tr "digest: %s" digest;
  {
    scenario = sc;
    violations = List.rev !violations;
    trace = Buffer.contents trace;
    digest;
    served = !served;
    overloaded_gaveup = !gaveup;
    conn_errors = !conn_errors;
  }

(* ------------------------------------------------------------------ *)
(* schedule search and shrinking                                       *)

let failing o = match o.violations with [] -> false | _ :: _ -> true

let search sc ~seeds =
  let rec go s =
    if s >= seeds then `Clean seeds
    else
      let o = run { sc with seed = sc.seed + s } in
      if failing o then `Found (o, s + 1) else go (s + 1)
  in
  go 0

(* Greedy structural shrinking: try each reduction, keep any that still
   fails, restart from the top; give up after [budget] runs.  The seed
   is part of the scenario, so the minimized repro replays exactly. *)
let shrink ?(budget = 40) o0 =
  let candidates sc =
    let halve n = n / 2 in
    List.filter_map
      (fun c -> c)
      [
        (if sc.clients > 1 then Some { sc with clients = halve sc.clients }
         else None);
        (if sc.clients > 1 then Some { sc with clients = sc.clients - 1 }
         else None);
        (if sc.requests > 1 then Some { sc with requests = halve sc.requests }
         else None);
        (if sc.requests > 1 then Some { sc with requests = sc.requests - 1 }
         else None);
        (if sc.faults then Some { sc with faults = false } else None);
        (if not sc.light then Some { sc with light = true } else None);
        (if sc.jobs > 1 then Some { sc with jobs = 1 } else None);
      ]
  in
  let evals = ref 0 in
  let rec fix best =
    let rec try_cands = function
      | [] -> best
      | sc :: rest ->
          if !evals >= budget then best
          else begin
            incr evals;
            let o = run sc in
            if failing o then fix o else try_cands rest
          end
    in
    try_cands (candidates best.scenario)
  in
  fix o0

(* ------------------------------------------------------------------ *)
(* replayable corpus entries                                           *)

let entry_to_json o =
  match scenario_to_json o.scenario with
  | Json.Assoc fields ->
      Json.Assoc
        (fields
        @ [
            ("expect_violation", Json.Bool (failing o));
            ( "note",
              Json.String
                (match o.violations with [] -> "" | v :: _ -> v) );
          ])
  | other -> other

let corpus_write ~dir o =
  let json = entry_to_json o in
  let body = Json.to_string ~pretty:true json ^ "\n" in
  let name =
    Printf.sprintf "dst-%s.json"
      (String.sub (Digest.to_hex (Digest.string body)) 0 12)
  in
  let path = Filename.concat dir name in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc body);
  path

let replay_file path =
  let ic = open_in_bin path in
  let body =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.of_string body with
  | Error msg -> Error (Printf.sprintf "%s: bad JSON: %s" path msg)
  | Ok json -> (
      match scenario_of_json json with
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Ok sc ->
          let expect =
            match
              Option.bind (Json.member "expect_violation" json) Json.to_bool
            with
            | Some b -> b
            | None -> true
          in
          let o = run sc in
          if Bool.equal (failing o) expect then Ok o
          else
            Error
              (Printf.sprintf
                 "%s: outcome changed: expected %s, run %s (first: %s)" path
                 (if expect then "violations" else "a clean run")
                 (if failing o then "violated" else "was clean")
                 (match o.violations with [] -> "none" | v :: _ -> v)))

(* ------------------------------------------------------------------ *)
(* the fuzz-catalogue extension                                        *)

let invariant_case (case : Search_check.Case.t) =
  let sc =
    scenario ~seed:case.Search_check.Case.turn_seed ~clients:2 ~requests:2
      ~faults:true ~jobs:1 ~queue_cap:2 ~batch_cap:4 ~cache_cap:8 ~light:true
      ()
  in
  let o1 = run sc in
  let o2 = run sc in
  let det =
    if String.equal o1.trace o2.trace then []
    else [ "same scenario, two runs, different traces (nondeterminism)" ]
  in
  o1.violations @ det

let register_invariant () =
  Search_check.Invariant.register ~name:"dst.whole_system" invariant_case
