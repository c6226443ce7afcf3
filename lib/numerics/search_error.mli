(** Structured error taxonomy for the whole system.

    Every failure the runtime can surface — bad regime parameters, a solver
    that ran out of iterations, a task that blew its budget, a worker domain
    that died — is a value of {!t}, carried by the single exception
    {!Error}.  Having one typed channel (instead of stringly
    [Invalid_argument]/[Failure] everywhere) lets the supervised runtime in
    [faulty_search.resilience] classify failures, decide what is retryable,
    render error cells in reports, and journal them as JSON.

    The type lives at the bottom of the dependency stack (numerics) so that
    [lib/bounds], [lib/sim], [lib/exec] and everything above can raise it
    without dependency cycles; every layer names it
    [Search_numerics.Search_error] (the [Faulty_search] facade as
    [Faulty_search.Search_error]). *)

type resource =
  | Steps  (** deterministic step/eval count *)
  | Seconds
      (** wall-clock; no budget in the library arms a time cap, but the
          tag stays part of the wire and journal vocabulary *)

type t =
  | Invalid_input of { where : string; what : string }
      (** Precondition violation at the API boundary, e.g.
          ["Formulas.mu: need 0 < k <= q"].  Deterministic; never retried. *)
  | Regime_violation of { m : int; k : int; f : int; what : string }
      (** The (m, k, f) instance is outside the searching regime of the
          paper (Theorem 1 needs k <= 2f + 2 etc.). *)
  | Non_convergence of { where : string; steps : int; detail : string }
      (** An iterative solver exhausted its iteration allowance without
          bracketing/meeting tolerance. *)
  | Budget_exceeded of {
      task : string;
      resource : resource;
      limit : float;
      spent : float;
    }  (** A supervised task ran past its per-task budget. *)
  | Cancelled of { task : string; reason : string }
      (** The task was cancelled.  Nothing in the library raises it; it
          stays part of the wire and journal vocabulary. *)
  | Injected_fault of { task : string; attempt : int; kind : string }
      (** A fault deliberately injected by the deterministic chaos mode. *)
  | Worker_crash of { task : string; attempt : int; detail : string }
      (** A task raised an exception the taxonomy does not know; the
          original exception text is preserved in [detail]. *)
  | Pool_closed of { what : string }
      (** The domain pool was shut down while the operation was pending. *)
  | Io_failure of { path : string; what : string }
      (** Filesystem trouble in the journal / lock-file / corpus layer. *)

exception Error of t

val raise_ : t -> 'a
(** [raise_ e] raises [Error e]. *)

val invalid : where:string -> string -> 'a
(** [invalid ~where what] raises [Error (Invalid_input _)]; drop-in
    replacement for [invalid_arg (where ^ ": " ^ what)]. *)

val tag : t -> string
(** Stable kebab-case discriminator, e.g. ["budget-exceeded"]; used as the
    JSON ["error"] field and in rendered error cells. *)

val to_string : t -> string
(** One-line human rendering: ["[tag] details"]. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Json.t
(** Exact rendering; non-finite floats are encoded as strings so the result
    always survives {!Json.to_string}. *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}. *)

val classify : task:string -> attempt:int -> exn -> t
(** Fold an arbitrary exception from a supervised task into the taxonomy:
    [Error e] stays [e]; [Invalid_argument] becomes [Invalid_input];
    anything else becomes [Worker_crash] with the printed exception. *)

val retryable : t -> bool
(** True for transient failures a supervisor may retry ([Injected_fault],
    [Worker_crash], [Io_failure]); false for deterministic ones — retrying
    an [Invalid_input] or [Budget_exceeded] can only fail identically. *)
