module Json = Search_numerics.Json
module E = Search_numerics.Search_error

type request =
  | Bound of { m : int; k : int; f : int }
  | Certify of { m : int; k : int; f : int; n : float; lambda : float }
  | Sweep of { m : int; k : int; f : int; n : float; samples : int }
  | Simulate of { beta : float; x : float; samples : int; seed : int }
  | Stats

type bound_payload = {
  bound : float;
  regime : string;
  alpha_star : float option;
  wire : string;
}

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

type pool_stats = { jobs : int; submitted : int; settled : int; pending : int }

type server_stats = {
  served : int;
  sheds : int;
  batches : int;
  max_batch : int;
  cache : cache_stats;
  pool : pool_stats;
}

type response =
  | Bound_ok of bound_payload
  | Certify_ok of { verdict : string; detail : string; bound : float }
  | Sweep_ok of { rows : string list list }
  | Simulate_ok of { estimate : float }
  | Stats_ok of server_stats
  | Overloaded of { pending : int; cap : int }
  | Failed of Search_numerics.Search_error.t

(* ------------------------------------------------------------------ *)
(* JSON helpers                                                        *)

(* the JSON printer rejects non-finite numbers; the bound of an
   unsolvable instance is [infinity], so floats travel through this
   non-finite-safe encoding (mirroring Search_error.to_json) *)
let float_to_json v =
  if Float.is_finite v then Json.Number v
  else if Float.is_nan v then Json.String "nan"
  else if v > 0. then Json.String "inf"
  else Json.String "-inf"

let float_of_json = function
  | Json.Number v -> Some v
  | Json.String "inf" -> Some infinity
  | Json.String "-inf" -> Some neg_infinity
  | Json.String "nan" -> Some Float.nan
  | Json.Null | Json.Bool _ | Json.String _ | Json.List _ | Json.Assoc _ ->
      None

let int_j i = Json.Number (float_of_int i)

let field name j = Json.member name j

let int_field name j =
  match Option.bind (field name j) Json.to_int with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or non-integer field %S" name)

let float_field name j =
  match Option.bind (field name j) float_of_json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or non-numeric field %S" name)

let string_field name j =
  match Option.bind (field name j) Json.to_string_value with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or non-string field %S" name)

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* requests                                                            *)

let request_to_json = function
  | Bound { m; k; f } ->
      Json.Assoc
        [ ("op", Json.String "bound"); ("m", int_j m); ("k", int_j k);
          ("f", int_j f) ]
  | Certify { m; k; f; n; lambda } ->
      Json.Assoc
        [
          ("op", Json.String "certify"); ("m", int_j m); ("k", int_j k);
          ("f", int_j f); ("n", float_to_json n);
          ("lambda", float_to_json lambda);
        ]
  | Sweep { m; k; f; n; samples } ->
      Json.Assoc
        [
          ("op", Json.String "sweep"); ("m", int_j m); ("k", int_j k);
          ("f", int_j f); ("n", float_to_json n); ("samples", int_j samples);
        ]
  | Simulate { beta; x; samples; seed } ->
      Json.Assoc
        [
          ("op", Json.String "simulate"); ("beta", float_to_json beta);
          ("x", float_to_json x); ("samples", int_j samples);
          ("seed", int_j seed);
        ]
  | Stats -> Json.Assoc [ ("op", Json.String "stats") ]

let request_of_json j =
  let* op = string_field "op" j in
  match op with
  | "bound" ->
      let* m = int_field "m" j in
      let* k = int_field "k" j in
      let* f = int_field "f" j in
      Ok (Bound { m; k; f })
  | "certify" ->
      let* m = int_field "m" j in
      let* k = int_field "k" j in
      let* f = int_field "f" j in
      let* n = float_field "n" j in
      let* lambda = float_field "lambda" j in
      Ok (Certify { m; k; f; n; lambda })
  | "sweep" ->
      let* m = int_field "m" j in
      let* k = int_field "k" j in
      let* f = int_field "f" j in
      let* n = float_field "n" j in
      let* samples = int_field "samples" j in
      Ok (Sweep { m; k; f; n; samples })
  | "simulate" ->
      let* beta = float_field "beta" j in
      let* x = float_field "x" j in
      let* samples = int_field "samples" j in
      let* seed = int_field "seed" j in
      Ok (Simulate { beta; x; samples; seed })
  | "stats" -> Ok Stats
  | other -> Error (Printf.sprintf "unknown op %S" other)

(* ------------------------------------------------------------------ *)
(* responses                                                           *)

let cache_stats_to_json (c : cache_stats) =
  Json.Assoc
    [
      ("hits", int_j c.hits); ("misses", int_j c.misses);
      ("evictions", int_j c.evictions); ("entries", int_j c.entries);
      ("capacity", int_j c.capacity);
    ]

let cache_stats_of_json j =
  let* hits = int_field "hits" j in
  let* misses = int_field "misses" j in
  let* evictions = int_field "evictions" j in
  let* entries = int_field "entries" j in
  let* capacity = int_field "capacity" j in
  Ok { hits; misses; evictions; entries; capacity }

let pool_stats_to_json (p : pool_stats) =
  Json.Assoc
    [
      ("jobs", int_j p.jobs); ("submitted", int_j p.submitted);
      ("settled", int_j p.settled); ("pending", int_j p.pending);
    ]

let pool_stats_of_json j =
  let* jobs = int_field "jobs" j in
  let* submitted = int_field "submitted" j in
  let* settled = int_field "settled" j in
  let* pending = int_field "pending" j in
  Ok { jobs; submitted; settled; pending }

let bound_to_json ~bound ~regime ~alpha_star =
  Json.Assoc
    [
      ("tag", Json.String "bound"); ("bound", float_to_json bound);
      ("regime", Json.String regime);
      ( "alpha_star",
        match alpha_star with Some a -> float_to_json a | None -> Json.Null );
    ]

let bound_payload ~bound ~regime ~alpha_star =
  {
    bound;
    regime;
    alpha_star;
    wire = Json.to_string (bound_to_json ~bound ~regime ~alpha_star);
  }

let response_to_json = function
  | Bound_ok { bound; regime; alpha_star; wire = _ } ->
      bound_to_json ~bound ~regime ~alpha_star
  | Certify_ok { verdict; detail; bound } ->
      Json.Assoc
        [
          ("tag", Json.String "certify"); ("verdict", Json.String verdict);
          ("detail", Json.String detail); ("bound", float_to_json bound);
        ]
  | Sweep_ok { rows } ->
      Json.Assoc
        [
          ("tag", Json.String "sweep");
          ( "rows",
            Json.List
              (List.map
                 (fun row -> Json.List (List.map (fun c -> Json.String c) row))
                 rows) );
        ]
  | Simulate_ok { estimate } ->
      Json.Assoc
        [ ("tag", Json.String "simulate"); ("estimate", float_to_json estimate) ]
  | Stats_ok s ->
      Json.Assoc
        [
          ("tag", Json.String "stats"); ("served", int_j s.served);
          ("sheds", int_j s.sheds); ("batches", int_j s.batches);
          ("max_batch", int_j s.max_batch);
          ("cache", cache_stats_to_json s.cache);
          ("pool", pool_stats_to_json s.pool);
        ]
  | Overloaded { pending; cap } ->
      Json.Assoc
        [
          ("tag", Json.String "overloaded"); ("pending", int_j pending);
          ("cap", int_j cap);
        ]
  | Failed err ->
      Json.Assoc [ ("tag", Json.String "error"); ("error", E.to_json err) ]

let response_of_json j =
  let* tag = string_field "tag" j in
  match tag with
  | "bound" ->
      let* bound = float_field "bound" j in
      let* regime = string_field "regime" j in
      let* alpha_star =
        match field "alpha_star" j with
        | Some Json.Null | None -> Ok None
        | Some v -> (
            match float_of_json v with
            | Some a -> Ok (Some a)
            | None -> Error "non-numeric field \"alpha_star\"")
      in
      Ok (Bound_ok (bound_payload ~bound ~regime ~alpha_star))
  | "certify" ->
      let* verdict = string_field "verdict" j in
      let* detail = string_field "detail" j in
      let* bound = float_field "bound" j in
      Ok (Certify_ok { verdict; detail; bound })
  | "sweep" -> (
      match Option.bind (field "rows" j) Json.to_list with
      | None -> Error "missing or non-list field \"rows\""
      | Some rows ->
          let row_of_json r =
            match Json.to_list r with
            | None -> None
            | Some cells ->
                let strings = List.filter_map Json.to_string_value cells in
                if Int.equal (List.length strings) (List.length cells) then
                  Some strings
                else None
          in
          let parsed = List.filter_map row_of_json rows in
          if Int.equal (List.length parsed) (List.length rows) then
            Ok (Sweep_ok { rows = parsed })
          else Error "malformed sweep row")
  | "simulate" ->
      let* estimate = float_field "estimate" j in
      Ok (Simulate_ok { estimate })
  | "stats" ->
      let* served = int_field "served" j in
      let* sheds = int_field "sheds" j in
      let* batches = int_field "batches" j in
      let* max_batch = int_field "max_batch" j in
      let* cache =
        match field "cache" j with
        | Some c -> cache_stats_of_json c
        | None -> Error "missing field \"cache\""
      in
      let* pool =
        match field "pool" j with
        | Some p -> pool_stats_of_json p
        | None -> Error "missing field \"pool\""
      in
      Ok (Stats_ok { served; sheds; batches; max_batch; cache; pool })
  | "overloaded" ->
      let* pending = int_field "pending" j in
      let* cap = int_field "cap" j in
      Ok (Overloaded { pending; cap })
  | "error" -> (
      match field "error" j with
      | None -> Error "missing field \"error\""
      | Some e ->
          let* err = E.of_json e in
          Ok (Failed err))
  | other -> Error (Printf.sprintf "unknown tag %S" other)

(* ------------------------------------------------------------------ *)
(* envelopes                                                           *)

let encode_request ~id req =
  Json.to_string
    (Json.Assoc [ ("id", int_j id); ("req", request_to_json req) ])

let decode_request s =
  match Json.of_string s with
  | Error msg -> Error (None, "frame is not JSON: " ^ msg)
  | Ok j -> (
      let id = Option.bind (field "id" j) Json.to_int in
      match field "req" j with
      | None -> Error (id, "missing field \"req\"")
      | Some rj -> (
          match request_of_json rj with
          | Error msg -> Error (id, msg)
          | Ok req -> (
              match id with
              | Some id -> Ok (id, req)
              | None -> Error (None, "missing or non-integer field \"id\""))))

(* the bytes of [Json.to_string (Assoc [("id", id); ("resp", body)])],
   spliced so a cached [Bound_ok] reuses its rendering *)
let encode_response ~id resp =
  let body =
    match resp with
    | Bound_ok p -> p.wire
    | Certify_ok _ | Sweep_ok _ | Simulate_ok _ | Stats_ok _ | Overloaded _
    | Failed _ ->
        Json.to_string (response_to_json resp)
  in
  String.concat ""
    [ {|{"id":|}; Json.number_to_string (float_of_int id); {|,"resp":|}; body;
      "}" ]

let decode_response s =
  match Json.of_string s with
  | Error msg -> Error ("frame is not JSON: " ^ msg)
  | Ok j -> (
      match Option.bind (field "id" j) Json.to_int with
      | None -> Error "missing or non-integer field \"id\""
      | Some id -> (
          match field "resp" j with
          | None -> Error "missing field \"resp\""
          | Some rj ->
              let* resp = response_of_json rj in
              Ok (id, resp)))

(* ------------------------------------------------------------------ *)
(* framing                                                             *)

module Frame = struct
  let default_max_frame = 1 lsl 20

  let encode payload =
    let len = String.length payload in
    if len >= 1 lsl 31 then
      E.invalid ~where:"Protocol.Frame.encode" "payload too large for a frame";
    let b = Bytes.create (4 + len) in
    Bytes.set b 0 (Char.chr ((len lsr 24) land 0xff));
    Bytes.set b 1 (Char.chr ((len lsr 16) land 0xff));
    Bytes.set b 2 (Char.chr ((len lsr 8) land 0xff));
    Bytes.set b 3 (Char.chr (len land 0xff));
    Bytes.blit_string payload 0 b 4 len;
    Bytes.to_string b

  module Decoder = struct
    type t = {
      buf : Buffer.t;
      max_frame : int;
      mutable pos : int;  (* bytes of [buf] already consumed *)
      mutable corrupt : string option;  (* sticky *)
    }

    let create ?(max_frame = default_max_frame) () =
      { buf = Buffer.create 4096; max_frame; pos = 0; corrupt = None }

    let feed t b ~off ~len =
      if len > 0 then Buffer.add_subbytes t.buf b off len

    let feed_string t s = Buffer.add_string t.buf s

    (* drop consumed bytes so a long-lived connection's buffer does not
       grow with the total traffic ever seen *)
    let compact t =
      if Int.equal t.pos (Buffer.length t.buf) then begin
        Buffer.clear t.buf;
        t.pos <- 0
      end
      else if t.pos > 1 lsl 16 then begin
        let rest = Buffer.sub t.buf t.pos (Buffer.length t.buf - t.pos) in
        Buffer.clear t.buf;
        Buffer.add_string t.buf rest;
        t.pos <- 0
      end

    let next t =
      match t.corrupt with
      | Some msg -> `Corrupt msg
      | None ->
          let available = Buffer.length t.buf - t.pos in
          if available < 4 then begin
            compact t;
            `Awaiting
          end
          else begin
            let byte i = Char.code (Buffer.nth t.buf (t.pos + i)) in
            let len =
              (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3
            in
            if byte 0 land 0x80 <> 0 then begin
              let msg = "negative frame length" in
              t.corrupt <- Some msg;
              `Corrupt msg
            end
            else if len > t.max_frame then begin
              let msg =
                Printf.sprintf "frame length %d exceeds the %d-byte limit" len
                  t.max_frame
              in
              t.corrupt <- Some msg;
              `Corrupt msg
            end
            else if available < 4 + len then begin
              compact t;
              `Awaiting
            end
            else begin
              let payload = Buffer.sub t.buf (t.pos + 4) len in
              t.pos <- t.pos + 4 + len;
              compact t;
              `Frame payload
            end
          end
  end
end
