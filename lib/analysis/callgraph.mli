(** Def/use extraction over the Typedtree and the global call graph.

    Entities are canonical dotted names rooted at the compilation unit
    ([Search_exec__Pool.async]); {!build} resolves references through
    both local [module X = ...] aliases and the library wrapper
    modules, so a call spelled [Pool.async] anywhere in the tree lands
    on the def's own name.  References below top-level granularity
    (locals, arguments) drop out by construction. *)

type reference = {
  target : string;
  rloc : Location.t;
  rheld : string list;  (** top-level mutexes held at the use site *)
}

type mutation = {
  cell : string;
  via : string;  (** the mutator applied, e.g. [":="] or ["Hashtbl.replace"] *)
  mloc : Location.t;
  mheld : string list;
}

type protect_event = {
  lock : string;
  ploc : Location.t;
  outer : string list;  (** locks already held when this one is taken *)
}

type cell_kind = Ref | Table | Container | Atomic

type cell = {
  cell_name : string;
  kind : cell_kind;
  cell_file : string;
  cell_loc : Location.t;
}

type alloc_kind =
  | Closure  (** a lambda evaluated inside the body (not a formal) *)
  | Partial  (** under-application: the result closure is built *)
  | Tuple
  | Record
  | Variant  (** non-constant constructor, including [::] *)
  | Array_lit
  | Lazy_block
  | Boxed_float of string  (** boxed return / polymorphic instantiation *)
  | Alloc_call of string  (** known-allocating stdlib call, no def in graph *)

type alloc = { akind : alloc_kind; aloc : Location.t }
(** One static allocation site.  Sites inside raiser argument subtrees
    ([raise]/[failwith]/[invalid_arg]/[Search_error.*]) are cold-path
    and never recorded; [let x = ref v in ...] with an immediate [v]
    used only via [!]/[:=]/[incr]/[decr] is compiled unboxed and not
    recorded either. *)

type hcall = { hname : string; hloc : Location.t; hcaught : string list }
(** A call site: an ident in function position after [@@]/[|>]
    flattening.  The interprocedural hot-path traversals follow these,
    not plain {!reference}s — referencing a value does not execute it.
    [hcaught] lists the exception constructors with an unguarded
    handler lexically in scope at the call site (["*"] = catch-all);
    the exception-flow pass subtracts them from the callee's may-raise
    set. *)

type raise_site = { exn : string; xloc : Location.t; xcaught : string list }
(** One static raise: a [raise]/[raise_notrace]/[failwith]/
    [invalid_arg]/[assert]/[Search_error] helper application or
    [Printexc.raise_with_backtrace].  [exn] is the canonical
    constructor name when it is syntactically evident (a literal
    construct argument, or implied by the raiser) and ["*"] otherwise;
    [xcaught] is the handler context as for {!hcall}. *)

type def = {
  name : string;
  display : string;  (** human form, wrapper mangling stripped *)
  file : string;
  dloc : Location.t;
  refs : reference list;
  mutations : mutation list;
  protects : protect_event list;
  allocs : alloc list;
  hcalls : hcall list;
  raises : raise_site list;
  pool_entry : bool;  (** carries [[@pool_entry]] *)
  hot : bool;  (** carries [[@hot]]: an allocation-budget root *)
  event_loop : bool;  (** carries [[@event_loop]]: a blocking-rule root *)
  nonblocking : bool;  (** carries [[@nonblocking]]: audited barrier *)
  releases : bool;
      (** carries [[@releases]]: audited to release what it acquires on
          every path, including raising ones *)
  real_io : bool;
      (** carries [[@real_io]]: audited barrier the sim-hygiene
          traversal does not look through *)
}

type summary = {
  unit_name : string;
  unit_file : string option;
  defs : def list;
  cells : cell list;
  mutexes : (string * Location.t) list;
  aliases : (string * string) list;
}

val summarize : Cmt_loader.unit_info -> summary
(** Pure per-unit extraction; safe to run in parallel over units. *)

type t = {
  defs : (string, def) Hashtbl.t;
  sorted_defs : def list;  (** every def, by canonical name *)
  cells : (string, cell) Hashtbl.t;
  mutex_locs : (string, Location.t) Hashtbl.t;
  entries : (string, unit) Hashtbl.t;
}

val build : summary list -> t
(** Merge summaries and resolve every reference, mutation, lock and
    held-set name through the global alias table (longest prefix first,
    iterated).  First unit wins on duplicate names. *)

val display_name : string -> string
(** [display_name "Search_exec__Pool.async" = "Pool.async"]. *)

val alloc_kind_to_string : alloc_kind -> string
(** Human description, e.g. ["closure allocation"]. *)

val strip_stdlib : string -> string
(** Drop one leading ["Stdlib."], if present. *)

val is_float_ty : Types.type_expr -> bool
(** The type is [float] itself (no expansion of abbreviations). *)

val find_def : t -> string -> def option
val find_cell : t -> string -> cell option
val is_entry : t -> string -> bool
(** Whether [name] submits work to the pool: an [[@pool_entry]] def or
    [Domain.spawn] itself. *)

val mutex_defined : t -> string -> bool
