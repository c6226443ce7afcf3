(** Wire protocol of the [faulty_search.serve] daemon.

    Transport: a Unix-domain stream socket carrying length-prefixed
    frames — a 4-byte big-endian payload length followed by that many
    bytes of UTF-8 JSON.  Each request frame is an envelope
    [{ "id": I, "req": R }]; the server answers with [{ "id": I,
    "resp": P }], echoing the client-chosen [id] so pipelined clients can
    correlate (responses to one connection keep the admission order of
    their requests, except shed requests, which are answered
    immediately).

    The codec is exact: every request/response value round-trips through
    its JSON rendering bit-for-bit (non-finite floats — e.g. the bound of
    an unsolvable instance — are encoded as the strings ["inf"],
    ["-inf"], ["nan"], since the JSON printer rejects them as numbers).
    Malformed input never kills a connection silently: a frame that is
    not JSON, or JSON that is not a valid envelope, produces a structured
    decode error the server maps onto a {!Failed} response carrying an
    [Invalid_input] tag. *)

(** {1 Requests} *)

type request =
  | Bound of { m : int; k : int; f : int }
      (** Closed-form bound [A(m, k, f)], regime, optimal base — served
          from the shared LRU cache. *)
  | Certify of { m : int; k : int; f : int; n : float; lambda : float }
      (** Run the lower-bound certificate (line for [m = 2], ORC
          otherwise) for the instance's optimal strategy against the
          claimed [lambda] on horizon [n]. *)
  | Sweep of { m : int; k : int; f : int; n : float; samples : int }
      (** Ratio-vs-alpha sweep around the optimal base; rows rendered as
          table cells, exactly as the CLI [sweep] subcommand renders
          them. *)
  | Simulate of { beta : float; x : float; samples : int; seed : int }
      (** Monte-Carlo estimate of the randomized cow-path ratio at
          target [x]; deterministic in [seed]. *)
  | Stats
      (** Server-side counters: cache hit/miss/eviction, pool tasks,
          batches, sheds.  Observational — see the determinism note
          below. *)

(** {1 Responses} *)

type bound_payload = private {
  bound : float;  (** [A(m, k, f)]; [infinity] when unsolvable *)
  regime : string;  (** ["searching" | "ratio-one" | "unsolvable"] *)
  alpha_star : float option;  (** optimal base, searching regime only *)
  wire : string;
      (** the compact JSON of [response_to_json (Bound_ok p)], rendered
          once so every cache hit reuses it *)
}

val bound_payload :
  bound:float -> regime:string -> alpha_star:float option -> bound_payload
(** The only way to build a payload: fills [wire] from the other fields. *)

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

type pool_stats = { jobs : int; submitted : int; settled : int; pending : int }

type server_stats = {
  served : int;  (** requests dispatched (not shed) *)
  sheds : int;  (** requests refused with {!Overloaded} *)
  batches : int;  (** dispatch cycles executed *)
  max_batch : int;  (** largest batch dispatched so far *)
  cache : cache_stats;
  pool : pool_stats;
}

type response =
  | Bound_ok of bound_payload
  | Certify_ok of { verdict : string; detail : string; bound : float }
      (** [verdict] is the stable tag ["refuted-gap" | "refuted-potential"
          | "not-refuted" | "inconclusive"]; [detail] a one-line human
          rendering; [bound] the cached theoretical bound. *)
  | Sweep_ok of { rows : string list list }
      (** One row per retained sample: rendered [alpha], predicted and
          simulated ratio cells. *)
  | Simulate_ok of { estimate : float }
  | Stats_ok of server_stats
  | Overloaded of { pending : int; cap : int }
      (** Admission control shed this request: the pending queue held
          [pending] of at most [cap] requests.  Back off and retry. *)
  | Failed of Search_numerics.Search_error.t
      (** The supervised evaluation failed; the structured error says
          why (bad parameters, budget blowout, worker crash, ...). *)

(** Determinism contract: for every request except [Stats], the response
    bytes are a pure function of the request — independent of the
    server's [--jobs], batching, concurrent clients, and cache state
    (the cache memoises pure functions).  [Stats_ok] and [Overloaded]
    are observational by nature and exempt. *)

(** {1 JSON codec} *)

val request_to_json : request -> Search_numerics.Json.t
val response_to_json : response -> Search_numerics.Json.t

val encode_request : id:int -> request -> string
(** The envelope [{ "id": I, "req": ... }] as compact JSON (unframed). *)

val decode_request : string -> (int * request, int option * string) result
(** Parse a request envelope.  On failure the error carries the [id] if
    one could still be extracted, so the server can address its error
    response. *)

val encode_response : id:int -> response -> string
(** The envelope [{ "id": I, "resp": ... }] as compact JSON (unframed);
    a [Bound_ok] body is its payload's [wire] string. *)

val decode_response : string -> (int * response, string) result

(** {1 Framing} *)

module Frame : sig
  val encode : string -> string
  (** Prefix the payload with its 4-byte big-endian length.
      @raise Search_numerics.Search_error.Error on payloads at or above
      2^31 bytes. *)

  (** Incremental decoder for one stream of concatenated frames. *)
  module Decoder : sig
    type t

    val create : ?max_frame:int -> unit -> t
    (** [max_frame] defaults to {!default_max_frame}; a declared length
        above it is a protocol violation, not an allocation request. *)

    val feed : t -> bytes -> off:int -> len:int -> unit
    val feed_string : t -> string -> unit

    val next : t -> [ `Frame of string | `Awaiting | `Corrupt of string ]
    (** [`Frame payload] consumes one complete frame; [`Awaiting] means
        the buffered bytes end mid-frame (a torn frame — feed more);
        [`Corrupt] means the stream declared a negative or oversized
        length and is beyond resynchronisation — the error is sticky and
        the connection should be closed after reporting it. *)
  end
end
