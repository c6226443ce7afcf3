(* Per-unit def/use extraction over the Typedtree, and the global,
   alias-resolved call graph the deep passes run on.

   Names.  Every entity gets one canonical dotted name rooted at its
   compilation unit: the function [map] in [lib/exec/supervise.ml] is
   ["Search_exec__Supervise.map"].  References are canonicalised the
   same way — a use spelled [Pool.async] types as the path
   [Search_exec.Pool.async], and the wrapper unit's alias table
   (harvested from the [search_exec] cmt dune generates) rewrites it to
   ["Search_exec__Pool.async"], the def's own name.  Local module
   aliases — [module X = ...] at any depth and [let module X = ... in]
   — are resolved first, by {!Cmt_loader.unalias}, the same resolver
   the per-file rules use.
   References that do not reach a top-level entity (function arguments,
   let-bound locals) canonicalise to [None] and drop out: the graph is
   deliberately at top-level-definition granularity.

   Context.  Each reference and mutation is recorded together with the
   list of top-level mutexes held at that program point — maintained by
   walking into the closure argument of [Mutex.protect m (fun () ->
   ...)] (the locking idiom the tree uses; a bare [Mutex.lock] is an
   escape-leak acquisition) — which is exactly what the lockset pass
   needs. *)

type reference = { target : string; rloc : Location.t; rheld : string list }

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
  | Closure
  | Partial
  | Tuple
  | Record
  | Variant
  | Array_lit
  | Lazy_block
  | Boxed_float of string
  | Alloc_call of string

type alloc = { akind : alloc_kind; aloc : Location.t }
type hcall = { hname : string; hloc : Location.t; hcaught : string list }

type raise_site = { exn : string; xloc : Location.t; xcaught : string list }

type def = {
  name : string;
  display : string;
  file : string;
  dloc : Location.t;
  refs : reference list;
  mutations : mutation list;
  protects : protect_event list;
  allocs : alloc list;
  hcalls : hcall list;
  raises : raise_site list;
  pool_entry : bool;
  hot : bool;
  event_loop : bool;
  nonblocking : bool;
  releases : bool;
  real_io : bool;
}

type summary = {
  unit_name : string;
  unit_file : string option;
  defs : def list;
  cells : cell list;
  mutexes : (string * Location.t) list;
  aliases : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* small helpers                                                       *)

let strip_stdlib name =
  match String.index_opt name '.' with
  | Some 6 when String.starts_with ~prefix:"Stdlib." name ->
      String.sub name 7 (String.length name - 7)
  | _ -> name

let is_float_ty ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

(* "Search_exec__Pool.async" -> "Pool.async"; the unit-name mangling is
   a dune implementation detail humans should not have to read. *)
let display_name name =
  match String.index_opt name '.' with
  | None -> name
  | Some i ->
      let head = String.sub name 0 i in
      let rest = String.sub name i (String.length name - i) in
      let rec last_sep from acc =
        match String.index_from_opt head from '_' with
        | Some j when j + 1 < String.length head && head.[j + 1] = '_' ->
            last_sep (j + 2) (Some (j + 2))
        | Some j -> last_sep (j + 1) acc
        | None -> acc
      in
      let head =
        match last_sep 0 None with
        | Some j -> String.sub head j (String.length head - j)
        | None -> head
      in
      head ^ rest

(* Write-mutators on the tracked cell families, keyed by their
   Stdlib-stripped canonical name.  Reads need no table: any reference
   to a cell is recorded as a plain use by the generic walk. *)
let write_mutators =
  [
    ":="; "incr"; "decr";
    "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.remove"; "Hashtbl.reset";
    "Hashtbl.clear"; "Hashtbl.filter_map_inplace"; "Hashtbl.add_seq";
    "Hashtbl.replace_seq";
    "Queue.push"; "Queue.add"; "Queue.pop"; "Queue.take"; "Queue.take_opt";
    "Queue.clear"; "Queue.transfer"; "Queue.add_seq";
    "Stack.push"; "Stack.pop"; "Stack.pop_opt"; "Stack.clear"; "Stack.drain";
    "Buffer.add_string"; "Buffer.add_char"; "Buffer.add_bytes";
    "Buffer.add_substring"; "Buffer.add_subbytes"; "Buffer.add_buffer";
    "Buffer.add_channel"; "Buffer.clear"; "Buffer.reset"; "Buffer.truncate";
    "Array.set"; "Array.fill"; "Array.blit"; "Array.sort"; "Array.unsafe_set";
    "Atomic.set"; "Atomic.exchange"; "Atomic.compare_and_set";
    "Atomic.fetch_and_add"; "Atomic.incr"; "Atomic.decr";
  ]

let cell_ctor = function
  | "ref" -> Some Ref
  | "Hashtbl.create" -> Some Table
  | "Atomic.make" -> Some Atomic
  | "Queue.create" | "Stack.create" | "Buffer.create" | "Dynarray.create"
  | "Array.make" | "Array.init" | "Array.create_float" ->
      Some Container
  | _ -> None

let alloc_kind_to_string = function
  | Closure -> "closure allocation"
  | Partial -> "partial application (closure allocation)"
  | Tuple -> "tuple allocation"
  | Record -> "record allocation"
  | Variant -> "variant allocation"
  | Array_lit -> "array literal allocation"
  | Lazy_block -> "lazy block allocation"
  | Boxed_float what -> what
  | Alloc_call fn -> Printf.sprintf "allocating call to %s" fn

(* Stdlib entry points with no def in the graph that are known to
   allocate on every call.  The in-tree half of the story needs no
   table: the hot traversal walks into those defs and sees their own
   allocation events. *)
let alloc_stdlib =
  [
    "ref"; "^"; "@";
    "string_of_int"; "string_of_float"; "float_of_string"; "int_of_string";
    "Array.make"; "Array.init"; "Array.create_float"; "Array.append";
    "Array.sub"; "Array.copy"; "Array.of_list"; "Array.to_list";
    "Array.concat"; "Array.map"; "Array.mapi"; "Array.map2"; "Array.split";
    "Array.combine"; "Array.to_seq"; "Array.to_seqi"; "Array.of_seq";
    "List.init"; "List.map"; "List.mapi"; "List.map2"; "List.rev";
    "List.rev_map"; "List.append"; "List.concat"; "List.flatten";
    "List.concat_map"; "List.filter"; "List.filteri"; "List.filter_map";
    "List.partition"; "List.split"; "List.combine"; "List.sort";
    "List.stable_sort"; "List.fast_sort"; "List.sort_uniq"; "List.cons";
    "List.of_seq"; "List.to_seq";
    "String.make"; "String.init"; "String.sub"; "String.concat";
    "String.cat"; "String.map"; "String.mapi"; "String.split_on_char";
    "String.trim"; "String.uppercase_ascii"; "String.lowercase_ascii";
    "String.to_seq"; "String.of_seq";
    "Bytes.create"; "Bytes.make"; "Bytes.init"; "Bytes.sub"; "Bytes.copy";
    "Bytes.of_string"; "Bytes.to_string"; "Bytes.extend"; "Bytes.cat";
    "Printf.sprintf"; "Printf.printf"; "Printf.eprintf"; "Printf.fprintf";
    "Format.asprintf"; "Format.sprintf"; "Format.fprintf"; "Format.printf";
    "Buffer.create"; "Buffer.contents"; "Buffer.to_bytes";
    "Buffer.add_string"; "Buffer.add_char"; "Buffer.add_bytes";
    "Buffer.add_substring"; "Buffer.add_buffer";
    "Hashtbl.create"; "Hashtbl.copy"; "Hashtbl.add"; "Hashtbl.replace";
    "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.of_seq";
    "Queue.create"; "Queue.push"; "Queue.add"; "Queue.transfer";
    "Stack.create"; "Stack.push";
    "Option.some"; "Option.map"; "Option.bind"; "Option.to_list";
    "Option.to_result";
    "Result.ok"; "Result.error"; "Result.map"; "Result.bind";
    "Filename.concat"; "Filename.basename"; "Filename.dirname";
  ]

let is_alloc_stdlib n =
  List.mem n alloc_stdlib || String.starts_with ~prefix:"Seq." n

(* Raisers start cold paths: allocations (and calls) inside their
   argument subtrees are precondition/diagnostic work that runs at most
   once per raise, never per hot iteration, so the budget pass exempts
   them.  Matched by suffix so both [invalid_arg] and a canonicalised
   [Search_numerics__Search_error.invalid] hit. *)
let raiser_suffixes =
  [
    "raise"; "raise_notrace"; "failwith"; "invalid_arg";
    "Search_error.invalid"; "Search_error.raise_";
  ]

let is_raiser name =
  let n = strip_stdlib name in
  List.exists
    (fun r -> String.equal n r || String.ends_with ~suffix:("." ^ r) n)
    raiser_suffixes

(* ------------------------------------------------------------------ *)
(* per-unit extraction                                                 *)

type acc = {
  mutable a_refs : reference list;
  mutable a_mutations : mutation list;
  mutable a_protects : protect_event list;
  mutable a_allocs : alloc list;
  mutable a_hcalls : hcall list;
  mutable a_raises : raise_site list;
}

let empty_summary u =
  {
    unit_name = u.Cmt_loader.modname;
    unit_file = u.Cmt_loader.source;
    defs = [];
    cells = [];
    mutexes = [];
    aliases = [];
  }

let summarize (u : Cmt_loader.unit_info) =
  match u.Cmt_loader.structure with
  | None -> empty_summary u
  | Some st ->
      let unit_name = u.Cmt_loader.modname in
      let file = Option.value u.Cmt_loader.source ~default:u.Cmt_loader.cmt_path in
      (* top-level idents of this unit, by stamp: values and modules *)
      let locals : (Ident.t * string) list ref = ref [] in
      let bind id canonical = locals := (id, canonical) :: !locals in
      let lookup id =
        List.find_map
          (fun (i, c) -> if Ident.same i id then Some c else None)
          !locals
      in
      let rec canon_resolved = function
        | Path.Pident id ->
            if Ident.global id then Some (Ident.name id) else lookup id
        | Path.Pdot (p, s) ->
            Option.map (fun b -> b ^ "." ^ s) (canon_resolved p)
        | Path.Papply _ | Path.Pextra_ty _ -> None
      in
      let unalias = Cmt_loader.unalias u in
      let canon p = canon_resolved (unalias p) in
      let aliases = ref [] in
      let cells = ref [] in
      let mutexes = ref [] in
      let defs = ref [] in
      (* the synthetic def collecting top-level effects: [let () = ...]
         and [Tstr_eval] items — the natural roots of test binaries *)
      let init_acc = ref None in
      let init_name = unit_name ^ ".(init)" in
      let fresh_acc () =
        {
          a_refs = [];
          a_mutations = [];
          a_protects = [];
          a_allocs = [];
          a_hcalls = [];
          a_raises = [];
        }
      in
      let held = ref [] in
      (* exception constructor names with a handler lexically in scope
         at the current program point; ["*"] is a catch-all pattern *)
      let caught = ref [] in
      let current = ref (fresh_acc ()) in
      (* > 0 while walking the argument subtree of a raiser: cold-path
         allocations and calls are exempt from the hot-path budget *)
      let raise_depth = ref 0 in
      let record_alloc aloc akind =
        if !raise_depth = 0 then
          !current.a_allocs <- { akind; aloc } :: !current.a_allocs
      in
      let record_hcall hloc hname =
        if !raise_depth = 0 then
          !current.a_hcalls <-
            { hname; hloc; hcaught = !caught } :: !current.a_hcalls
      in
      let record_raise xloc exn =
        !current.a_raises <-
          { exn; xloc; xcaught = !caught } :: !current.a_raises
      in
      let with_caught names f =
        if names = [] then f ()
        else begin
          let saved = !caught in
          caught := names @ saved;
          Fun.protect ~finally:(fun () -> caught := saved) f
        end
      in
      let is_immediate_ty ty =
        match Types.get_desc ty with
        | Types.Tconstr (p, [], _) ->
            Path.same p Predef.path_int || Path.same p Predef.path_float
            || Path.same p Predef.path_bool
            || Path.same p Predef.path_char
        | _ -> false
      in
      (* the declared (generic) argument types of a function scheme, up
         to [n] arrows deep — Tvars in here are polymorphic formals *)
      let arrow_formals ty n =
        let rec go ty n acc =
          if n = 0 then List.rev acc
          else
            match Types.get_desc ty with
            | Types.Tarrow (_, targ, tret, _) -> go tret (n - 1) (targ :: acc)
            | _ -> List.rev acc
        in
        go ty n []
      in
      let rec contains_tvar ty =
        match Types.get_desc ty with
        | Types.Tvar _ -> true
        | Types.Tarrow (_, a, b, _) -> contains_tvar a || contains_tvar b
        | Types.Tconstr (_, args, _) -> List.exists contains_tvar args
        | Types.Ttuple ts -> List.exists contains_tvar ts
        | _ -> false
      in
      let is_arrow ty =
        match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false
      in
      (* does unifying [formal] (generic) with [actual] (instantiated)
         pin a polymorphic variable to float? *)
      let rec instantiates_float formal actual =
        match (Types.get_desc formal, Types.get_desc actual) with
        | Types.Tvar _, _ -> is_float_ty actual
        | Types.Tconstr (p, fargs, _), Types.Tconstr (q, aargs, _)
          when Path.same p q && List.length fargs = List.length aargs ->
            List.exists2 instantiates_float fargs aargs
        | Types.Ttuple fs, Types.Ttuple as_
          when List.length fs = List.length as_ ->
            List.exists2 instantiates_float fs as_
        | _ -> false
      in
      (* Exception-constructor identity.  Extension constructors carry
         their full path in the tag; [canon] resolves it like any other
         reference (local exceptions through the stamp table, foreign
         ones through the alias pass in [build]).  Predef and otherwise
         unresolvable constructors fall back to the bare name. *)
      let exn_ctor_name (cd : Types.constructor_description) =
        match cd.Types.cstr_tag with
        | Types.Cstr_extension (path, _) -> (
            match canon path with Some n -> n | None -> cd.Types.cstr_name)
        | _ -> cd.Types.cstr_name
      in
      (* constructor names a handler pattern catches; ["*"] when it is a
         catch-all (variable/wildcard) or too complex to name *)
      let rec handler_pat_names (p : Typedtree.pattern) =
        match p.Typedtree.pat_desc with
        | Typedtree.Tpat_construct (_, cd, _, _) -> [ exn_ctor_name cd ]
        | Typedtree.Tpat_alias (sub, _, _) -> handler_pat_names sub
        | Typedtree.Tpat_or (a, b, _) ->
            handler_pat_names a @ handler_pat_names b
        | _ -> [ "*" ]
      in
      (* the exception argument of [raise]/[raise_with_backtrace]: a
         literal constructor names itself, anything else is unknown *)
      let exn_of_arg (args : Typedtree.expression list) =
        match args with
        | { Typedtree.exp_desc = Typedtree.Texp_construct (_, cd, _); _ } :: _
          ->
            exn_ctor_name cd
        | _ -> "*"
      in
      (* expression walker: records references, write-mutations and
         Mutex.protect nesting into [current], in context [held] *)
      let super = Tast_iterator.default_iterator in
      (* [let x = ref init in body] where [x] holds an immediate/float
         and every use of [x] in [body] is directly under [!]/[:=]/
         [incr]/[decr]: ocamlopt unboxes the reference (no allocation),
         so the budget pass must not count the [ref]. *)
      let deref_ops = [ "!"; ":="; "incr"; "decr" ] in
      let uses_only_deref id body =
        let ok = ref true in
        let expr self (e : Typedtree.expression) =
          match e.Typedtree.exp_desc with
          | Typedtree.Texp_ident (Path.Pident i, _, _) when Ident.same i id ->
              ok := false
          | Typedtree.Texp_apply (fn, args) -> (
              let deref =
                match fn.Typedtree.exp_desc with
                | Typedtree.Texp_ident (p, _, _) -> (
                    match canon p with
                    | Some n -> List.mem (strip_stdlib n) deref_ops
                    | None -> false)
                | _ -> false
              in
              match (deref, args) with
              | ( true,
                  ( _,
                    Some
                      {
                        Typedtree.exp_desc =
                          Typedtree.Texp_ident (Path.Pident i, _, _);
                        _;
                      } )
                  :: rest )
                when Ident.same i id ->
                  List.iter
                    (function _, Some a -> self.Tast_iterator.expr self a | _ -> ())
                    rest
              | _ -> super.Tast_iterator.expr self e)
          | _ -> super.Tast_iterator.expr self e
        in
        let it = { super with expr } in
        it.Tast_iterator.expr it body;
        !ok
      in
      let unboxable_ref_binding (vb : Typedtree.value_binding) body =
        match vb.Typedtree.vb_pat.Typedtree.pat_desc with
        | Typedtree.Tpat_var (id, _) -> (
            match vb.Typedtree.vb_expr.Typedtree.exp_desc with
            | Typedtree.Texp_apply (fn, [ (_, Some init) ]) -> (
                match fn.Typedtree.exp_desc with
                | Typedtree.Texp_ident (p, _, _)
                  when (match Option.map strip_stdlib (canon p) with
                       | Some "ref" -> true
                       | _ -> false)
                       && is_immediate_ty init.Typedtree.exp_type
                       && uses_only_deref id body ->
                    Some init
                | _ -> None)
            | _ -> None)
        | _ -> None
      in
      let rec walk_expr self (e : Typedtree.expression) =
        match e.Typedtree.exp_desc with
        | Typedtree.Texp_ident (p, _, _) -> (
            match canon p with
            | Some target ->
                !current.a_refs <-
                  { target; rloc = e.Typedtree.exp_loc; rheld = !held }
                  :: !current.a_refs
            | None -> ())
        | Typedtree.Texp_apply (fn, args) ->
            let args =
              List.filter_map (function _, Some a -> Some a | _ -> None) args
            in
            handle_app self e fn args
        | Typedtree.Texp_setfield (tgt, _, _, v) ->
            (match tgt.Typedtree.exp_desc with
            | Typedtree.Texp_ident (p, _, _) -> (
                match canon p with
                | Some cell ->
                    !current.a_mutations <-
                      {
                        cell;
                        via = "<-";
                        mloc = e.Typedtree.exp_loc;
                        mheld = !held;
                      }
                      :: !current.a_mutations
                | None -> ())
            | _ -> ());
            self.Tast_iterator.expr self tgt;
            self.Tast_iterator.expr self v
        | Typedtree.Texp_let (Asttypes.Nonrecursive, [ vb ], body)
          when unboxable_ref_binding vb body <> None ->
            (match unboxable_ref_binding vb body with
            | Some init -> self.Tast_iterator.expr self init
            | None -> assert false);
            self.Tast_iterator.expr self body
        | Typedtree.Texp_function _ ->
            record_alloc e.Typedtree.exp_loc Closure;
            super.Tast_iterator.expr self e
        | Typedtree.Texp_letop _ ->
            record_alloc e.Typedtree.exp_loc Closure;
            super.Tast_iterator.expr self e
        | Typedtree.Texp_tuple _ ->
            record_alloc e.Typedtree.exp_loc Tuple;
            super.Tast_iterator.expr self e
        | Typedtree.Texp_construct (_, _, args) when args <> [] ->
            record_alloc e.Typedtree.exp_loc Variant;
            super.Tast_iterator.expr self e
        | Typedtree.Texp_record _ ->
            record_alloc e.Typedtree.exp_loc Record;
            super.Tast_iterator.expr self e
        | Typedtree.Texp_array _ ->
            record_alloc e.Typedtree.exp_loc Array_lit;
            super.Tast_iterator.expr self e
        | Typedtree.Texp_lazy _ ->
            record_alloc e.Typedtree.exp_loc Lazy_block;
            super.Tast_iterator.expr self e
        | Typedtree.Texp_try (body, cases) ->
            (* guarded handlers re-raise when the guard fails, so only
               unguarded cases establish handler context for the body *)
            let names =
              List.concat_map
                (fun (c : Typedtree.value Typedtree.case) ->
                  if c.Typedtree.c_guard <> None then []
                  else handler_pat_names c.Typedtree.c_lhs)
                cases
            in
            with_caught names (fun () -> self.Tast_iterator.expr self body);
            List.iter (self.Tast_iterator.case self) cases
        | Typedtree.Texp_match (scrut, cases, _) ->
            (* [match e with ... | exception P -> ...] handles P around
               the scrutinee only, not around the case bodies *)
            let names =
              List.concat_map
                (fun (c : Typedtree.computation Typedtree.case) ->
                  if c.Typedtree.c_guard <> None then []
                  else
                    match snd (Typedtree.split_pattern c.Typedtree.c_lhs) with
                    | Some p -> handler_pat_names p
                    | None -> [])
                cases
            in
            with_caught names (fun () -> self.Tast_iterator.expr self scrut);
            List.iter (self.Tast_iterator.case self) cases
        | Typedtree.Texp_assert (cond, _) ->
            record_raise e.Typedtree.exp_loc "Assert_failure";
            self.Tast_iterator.expr self cond
        | _ -> super.Tast_iterator.expr self e
      and handle_app self app fn args =
        match fn.Typedtree.exp_desc with
        (* [Mutex.protect m @@ fun () -> ...] puts the partial
           application [Mutex.protect m] in the function position of
           [@@]; flatten it so the full argument list is visible *)
        | Typedtree.Texp_apply (fn', args') ->
            let args' =
              List.filter_map
                (function _, Some a -> Some a | _ -> None)
                args'
            in
            handle_app self app fn' (args' @ args)
        | _ -> (
        let fn_name =
          match fn.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, _, _) -> canon p
          | _ -> None
        in
        match (Option.map strip_stdlib fn_name, args) with
        (* [f @@ x] and [x |> f] are applications of [f] to [x] *)
        | Some "@@", [ f; x ] -> handle_app self app f [ x ]
        | Some "|>", [ x; f ] -> handle_app self app f [ x ]
        | Some "Mutex.protect", [ m; body ] ->
            let lock =
              match m.Typedtree.exp_desc with
              | Typedtree.Texp_ident (p, _, _) -> canon p
              | _ -> None
            in
            self.Tast_iterator.expr self m;
            (match lock with
            | Some lock ->
                !current.a_protects <-
                  { lock; ploc = m.Typedtree.exp_loc; outer = !held }
                  :: !current.a_protects;
                let saved = !held in
                held := lock :: saved;
                Fun.protect
                  ~finally:(fun () -> held := saved)
                  (fun () -> self.Tast_iterator.expr self body)
            | None -> self.Tast_iterator.expr self body)
        | fn_stripped, _ ->
            (match (fn_stripped, args) with
            | Some via, first :: _ when List.mem via write_mutators -> (
                match first.Typedtree.exp_desc with
                | Typedtree.Texp_ident (p, _, _) -> (
                    match canon p with
                    | Some cell ->
                        !current.a_mutations <-
                          {
                            cell;
                            via;
                            mloc = first.Typedtree.exp_loc;
                            mheld = !held;
                          }
                          :: !current.a_mutations
                    | None -> ())
                | _ -> ())
            | _ -> ());
            (match Option.map strip_stdlib fn_name with
            | Some "Printexc.raise_with_backtrace" ->
                record_raise app.Typedtree.exp_loc (exn_of_arg args)
            | _ -> ());
            (match fn_name with
            | Some n when is_raiser n ->
                (let nn = strip_stdlib n in
                 let ends s =
                   String.equal nn s
                   || String.ends_with ~suffix:("." ^ s) nn
                 in
                 let exn =
                   if ends "failwith" then "Failure"
                   else if ends "invalid_arg" then "Invalid_argument"
                   else if
                     ends "Search_error.invalid" || ends "Search_error.raise_"
                   then "Search_error.Error"
                   else exn_of_arg args
                 in
                 record_raise app.Typedtree.exp_loc exn);
                (* cold path: the raiser's argument subtree is exempt
                   from allocation and hot-call accounting *)
                self.Tast_iterator.expr self fn;
                incr raise_depth;
                Fun.protect
                  ~finally:(fun () -> decr raise_depth)
                  (fun () -> List.iter (self.Tast_iterator.expr self) args)
            | _ ->
                (match fn_name with
                | Some n -> record_hcall fn.Typedtree.exp_loc n
                | None -> ());
                (if is_arrow app.Typedtree.exp_type then
                   (* under-application: the result closure is built *)
                   record_alloc app.Typedtree.exp_loc Partial
                 else
                   match (fn.Typedtree.exp_desc, fn_stripped) with
                   | _, Some n when is_alloc_stdlib n ->
                       record_alloc app.Typedtree.exp_loc (Alloc_call n)
                   | Typedtree.Texp_ident (_, _, vd), Some n
                     when (match vd.Types.val_kind with
                          | Types.Val_prim _ -> false
                          | _ -> true) ->
                       let disp = display_name n in
                       if is_float_ty app.Typedtree.exp_type then
                         record_alloc app.Typedtree.exp_loc
                           (Boxed_float ("boxed float return of " ^ disp))
                       else begin
                         let formals =
                           arrow_formals vd.Types.val_type (List.length args)
                         in
                         let rec zip fs xs =
                           match (fs, xs) with
                           | f :: fs', (x : Typedtree.expression) :: xs' ->
                               (f, x.Typedtree.exp_type) :: zip fs' xs'
                           | _ -> []
                         in
                         let pairs = zip formals args in
                         let bare_tvar ty =
                           match Types.get_desc ty with
                           | Types.Tvar _ -> true
                           | _ -> false
                         in
                         if
                           List.exists
                             (fun (f, a) -> bare_tvar f && is_float_ty a)
                             pairs
                         then
                           record_alloc app.Typedtree.exp_loc
                             (Boxed_float
                                ("float boxed at polymorphic argument of "
                               ^ disp))
                         else if
                           List.exists
                             (fun f -> is_arrow f && contains_tvar f)
                             formals
                           && List.exists
                                (fun (f, a) -> instantiates_float f a)
                                pairs
                         then
                           record_alloc app.Typedtree.exp_loc
                             (Boxed_float
                                ("polymorphic higher-order call to " ^ disp
                               ^ " instantiated at float"))
                       end
                   | _ -> ());
                self.Tast_iterator.expr self fn;
                List.iter (self.Tast_iterator.expr self) args))
      in
      let it = { super with expr = walk_expr } in
      (* Walk a binding's expression, peeling the outermost chain of
         single-case lambdas first: those are the def's own formal
         parameters (its static closure), not per-call allocations. *)
      let rec walk_def_body (e : Typedtree.expression) =
        match e.Typedtree.exp_desc with
        | Typedtree.Texp_function { cases = [ c ]; _ }
          when c.Typedtree.c_guard = None ->
            walk_def_body c.Typedtree.c_rhs
        | Typedtree.Texp_function { cases; _ } ->
            List.iter
              (fun c ->
                Option.iter (it.Tast_iterator.expr it) c.Typedtree.c_guard;
                it.Tast_iterator.expr it c.Typedtree.c_rhs)
              cases
        | _ -> it.Tast_iterator.expr it e
      in
      let finish_def ~prefix ~name ~dloc ~attrs acc =
        let has a =
          List.exists
            (fun (at : Parsetree.attribute) ->
              String.equal at.Parsetree.attr_name.Location.txt a)
            attrs
        in
        defs :=
          {
            name = prefix ^ "." ^ name;
            display = display_name (prefix ^ "." ^ name);
            file;
            dloc;
            refs = List.rev acc.a_refs;
            mutations = List.rev acc.a_mutations;
            protects = List.rev acc.a_protects;
            allocs = List.rev acc.a_allocs;
            hcalls = List.rev acc.a_hcalls;
            raises = List.rev acc.a_raises;
            pool_entry = has "pool_entry";
            hot = has "hot";
            event_loop = has "event_loop";
            nonblocking = has "nonblocking";
            releases = has "releases";
            real_io = has "real_io";
          }
          :: !defs
      in
      let rec pat_vars (p : Typedtree.pattern) =
        match p.Typedtree.pat_desc with
        | Typedtree.Tpat_var (id, nm) -> [ (id, nm.Location.txt) ]
        | Typedtree.Tpat_alias (sub, id, nm) ->
            (id, nm.Location.txt) :: pat_vars sub
        | Typedtree.Tpat_tuple ps -> List.concat_map pat_vars ps
        | Typedtree.Tpat_construct (_, _, ps, _) -> List.concat_map pat_vars ps
        | Typedtree.Tpat_record (fields, _) ->
            List.concat_map (fun (_, _, p) -> pat_vars p) fields
        | _ -> []
      in
      (* top-level code outside any named def joins [(init)] *)
      let in_init e =
        (current :=
           match !init_acc with
           | Some a -> a
           | None ->
               let a = fresh_acc () in
               init_acc := Some a;
               a);
        it.Tast_iterator.expr it e
      in
      let rec walk_items prefix items =
        List.iter (walk_item prefix) items
      and walk_item prefix (item : Typedtree.structure_item) =
        match item.Typedtree.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                match pat_vars vb.Typedtree.vb_pat with
                | [] ->
                    (* [let () = ...] *)
                    in_init vb.Typedtree.vb_expr
                | (id0, name0) :: _ as vars ->
                    List.iter
                      (fun (id, nm) -> bind id (prefix ^ "." ^ nm))
                      vars;
                    (match cell_of_binding vb with
                    | Some `Mutex ->
                        mutexes :=
                          (prefix ^ "." ^ name0, vb.Typedtree.vb_loc)
                          :: !mutexes
                    | Some (`Cell kind) ->
                        cells :=
                          {
                            cell_name = prefix ^ "." ^ name0;
                            kind;
                            cell_file = file;
                            cell_loc = vb.Typedtree.vb_loc;
                          }
                          :: !cells
                    | None -> ());
                    ignore id0;
                    let acc = fresh_acc () in
                    current := acc;
                    walk_def_body vb.Typedtree.vb_expr;
                    finish_def ~prefix ~name:name0 ~dloc:vb.Typedtree.vb_loc
                      ~attrs:vb.Typedtree.vb_attributes acc)
              vbs
        | Typedtree.Tstr_eval (e, _) ->
            in_init e
        | Typedtree.Tstr_exception ext ->
            (* register the constructor so in-unit raise sites and
               handlers canonicalise to the same dotted name foreign
               units resolve to *)
            let ec = ext.Typedtree.tyexn_constructor in
            bind ec.Typedtree.ext_id
              (prefix ^ "." ^ ec.Typedtree.ext_name.Location.txt)
        | Typedtree.Tstr_module mb -> walk_module prefix mb
        | Typedtree.Tstr_recmodule mbs -> List.iter (walk_module prefix) mbs
        | Typedtree.Tstr_include incl ->
            walk_module_expr prefix None incl.Typedtree.incl_mod
        | _ -> ()
      and walk_module prefix (mb : Typedtree.module_binding) =
        walk_module_expr prefix mb.Typedtree.mb_id mb.Typedtree.mb_expr
      and walk_module_expr prefix id (me : Typedtree.module_expr) =
        match me.Typedtree.mod_desc with
        | Typedtree.Tmod_constraint (inner, _, _, _) ->
            walk_module_expr prefix id inner
        | Typedtree.Tmod_ident (p, _) -> (
            match (id, canon p) with
            | Some id, Some target ->
                aliases := (prefix ^ "." ^ Ident.name id, target) :: !aliases
            | _ -> ())
        | Typedtree.Tmod_structure sub ->
            let sub_prefix =
              match id with
              | Some id ->
                  let sp = prefix ^ "." ^ Ident.name id in
                  bind id sp;
                  sp
              | None -> prefix
            in
            walk_items sub_prefix sub.Typedtree.str_items
        (* a functor body's defs are named like a structure's; an
           applied functor or its argument is walked without aliasing
           the result, so [Map.Make (String)] stays opaque *)
        | Typedtree.Tmod_functor (_, body) -> walk_module_expr prefix id body
        | Typedtree.Tmod_apply (f, arg, _) ->
            walk_module_expr prefix None f;
            walk_module_expr prefix None arg
        | _ -> ()
      and cell_of_binding (vb : Typedtree.value_binding) =
        match vb.Typedtree.vb_expr.Typedtree.exp_desc with
        | Typedtree.Texp_apply (fn, _) -> (
            match fn.Typedtree.exp_desc with
            | Typedtree.Texp_ident (p, _, _) -> (
                match Option.map strip_stdlib (canon p) with
                | Some "Mutex.create" -> Some `Mutex
                | Some ctor ->
                    Option.map (fun k -> `Cell k) (cell_ctor ctor)
                | None -> None)
            | _ -> None)
        | _ -> None
      in
      walk_items unit_name st.Typedtree.str_items;
      (match !init_acc with
      | Some acc ->
          defs :=
            {
              name = init_name;
              display = display_name init_name;
              file;
              dloc = Location.in_file file;
              refs = List.rev acc.a_refs;
              mutations = List.rev acc.a_mutations;
              protects = List.rev acc.a_protects;
              allocs = List.rev acc.a_allocs;
              hcalls = List.rev acc.a_hcalls;
              raises = List.rev acc.a_raises;
              pool_entry = false;
              hot = false;
              event_loop = false;
              nonblocking = false;
              releases = false;
              real_io = false;
            }
            :: !defs
      | None -> ());
      {
        unit_name;
        unit_file = u.Cmt_loader.source;
        defs = List.rev !defs;
        cells = List.rev !cells;
        mutexes = List.rev !mutexes;
        aliases = List.rev !aliases;
      }

(* ------------------------------------------------------------------ *)
(* the global graph                                                    *)

type t = {
  defs : (string, def) Hashtbl.t;
  sorted_defs : def list;  (** every def, by canonical name *)
  cells : (string, cell) Hashtbl.t;
  mutex_locs : (string, Location.t) Hashtbl.t;
  entries : (string, unit) Hashtbl.t;
}

let builtin_entries = [ "Domain.spawn" ]

(* Rewrite the longest known alias prefix of a dotted name, repeatedly:
   [Faulty_search.Params.make] -> [Search_bounds.Params.make] ->
   [Search_bounds__Params.make]. *)
let resolve_with aliases name =
  (* candidate prefix lengths of [name]: the whole of it, then every
     dot position, longest first *)
  let prefix_lengths name =
    let rec dots n acc =
      match String.rindex_opt (String.sub name 0 n) '.' with
      | Some i when i > 0 -> dots i (i :: acc)
      | _ -> acc
    in
    String.length name :: List.rev (dots (String.length name) [])
  in
  let rec go name fuel =
    if fuel = 0 then name
    else
      let hit =
        List.find_map
          (fun n ->
            let p = String.sub name 0 n in
            match Hashtbl.find_opt aliases p with
            | Some target when not (String.equal target p) ->
                Some (target ^ String.sub name n (String.length name - n))
            | _ -> None)
          (prefix_lengths name)
      in
      match hit with None -> name | Some name' -> go name' (fuel - 1)
  in
  go name 16

let build summaries =
  let aliases = Hashtbl.create 256 in
  List.iter
    (fun (s : summary) ->
      List.iter
        (fun (k, v) ->
          if not (Hashtbl.mem aliases k) then Hashtbl.add aliases k v)
        s.aliases)
    summaries;
  let resolve = resolve_with aliases in
  let defs = Hashtbl.create 1024 in
  let cells = Hashtbl.create 64 in
  let mutex_locs = Hashtbl.create 16 in
  let entries = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace entries e ()) builtin_entries;
  List.iter
    (fun (s : summary) ->
      List.iter
        (fun c ->
          if not (Hashtbl.mem cells c.cell_name) then
            Hashtbl.add cells c.cell_name c)
        s.cells;
      List.iter
        (fun (m, loc) ->
          if not (Hashtbl.mem mutex_locs m) then Hashtbl.add mutex_locs m loc)
        s.mutexes;
      List.iter
        (fun d ->
          let d =
            {
              d with
              refs =
                List.map
                  (fun r -> { r with target = resolve r.target;
                              rheld = List.map resolve r.rheld })
                  d.refs;
              mutations =
                List.map
                  (fun m -> { m with cell = resolve m.cell;
                              mheld = List.map resolve m.mheld })
                  d.mutations;
              protects =
                List.map
                  (fun p -> { p with lock = resolve p.lock;
                              outer = List.map resolve p.outer })
                  d.protects;
              hcalls =
                List.map
                  (fun h -> { h with hname = resolve h.hname;
                              hcaught = List.map resolve h.hcaught })
                  d.hcalls;
              raises =
                List.map
                  (fun (x : raise_site) ->
                    { x with exn = resolve x.exn;
                      xcaught = List.map resolve x.xcaught })
                  d.raises;
            }
          in
          if not (Hashtbl.mem defs d.name) then Hashtbl.add defs d.name d;
          if d.pool_entry then Hashtbl.replace entries d.name ())
        s.defs)
    summaries;
  let sorted_defs =
    List.sort
      (fun a b -> String.compare a.name b.name)
      (Hashtbl.fold (fun _ d acc -> d :: acc) defs [])
  in
  { defs; sorted_defs; cells; mutex_locs; entries }

let find_def t name = Hashtbl.find_opt t.defs name
let is_entry t name = Hashtbl.mem t.entries name || Hashtbl.mem t.entries (strip_stdlib name)
let mutex_defined t name = Hashtbl.mem t.mutex_locs name
