open Typedtree

type rule = {
  id : string;
  severity : Finding.severity;
  doc : string;
  applies : string -> bool;
}

(* ------------------------------------------------------------------ *)
(* shared helpers                                                      *)

let in_dir dir path = String.starts_with ~prefix:(dir ^ "/") path
let in_lib = in_dir "lib"
let not_in_test path = not (in_dir "test" path)
let everywhere _ = true

(* Matching is on the resolved path; messages quote the spelling. *)
let resolved p = Callgraph.strip_stdlib (Path.name p)
let spelled (lid : Longident.t Location.loc) =
  String.concat "." (Longident.flatten lid.txt)

(* The name of a path rooted at [Stdlib] itself — a local [compare] or
   [( = )] is a [Pident] and never matches. *)
let stdlib_name p =
  let n = Path.name p in
  if String.starts_with ~prefix:"Stdlib." n then Some (resolved p) else None

(* ------------------------------------------------------------------ *)
(* registry                                                            *)

let all =
  [
    {
      id = "poly-compare";
      severity = Finding.Error;
      doc =
        "polymorphic compare/equality on non-immediate values (floats, \
         float-carrying records)";
      applies = everywhere;
    };
    {
      id = "nondet";
      severity = Finding.Error;
      doc =
        "ambient nondeterminism: Random.*, wall clocks, representation \
         hashing";
      applies = everywhere;
    };
    {
      id = "float-hygiene";
      severity = Finding.Error;
      doc = "NaN literals, unguarded float_of_string, division by 0.";
      applies = not_in_test;
    };
    {
      id = "lock-discipline";
      severity = Finding.Error;
      doc = "bare Mutex.lock/unlock outside Mutex.protect/Fun.protect";
      applies = everywhere;
    };
    {
      id = "unsafe-ops";
      severity = Finding.Error;
      doc = "Obj.magic, unsafe_get/set, %identity externals";
      applies = everywhere;
    };
    {
      id = "output-discipline";
      severity = Finding.Error;
      doc = "direct stdout/stderr printing inside lib/";
      applies = in_lib;
    };
    {
      id = "mli-coverage";
      severity = Finding.Warning;
      doc = "every lib/ module ships an interface";
      applies = in_lib;
    };
    {
      id = "closed-variant-wildcard";
      severity = Finding.Warning;
      doc = "catch-all _ arm in matches on closed domain variants";
      applies = in_lib;
    };
    {
      id = "global-mutable-state";
      severity = Finding.Warning;
      doc = "top-level refs/tables shared across domains";
      applies = in_lib;
    };
  ]

let finding ~file ?suggestion ~loc id message =
  match List.find_opt (fun r -> String.equal r.id id) all with
  | Some r when r.applies file ->
      Some
        (Finding.v ~rule:id ~severity:r.severity ~file ?suggestion ~loc message)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* ident rules: (rule, message, suggestion) for a resolved name        *)

let ident_hits name spelled =
  match String.split_on_char '.' name with
  | "Random" :: _ ->
      [
        ( "nondet",
          Printf.sprintf "ambient PRNG %s breaks deterministic replay" spelled,
          "draw from Search_numerics.Prng (splittable, replayable) instead" );
      ]
  | [ "Sys"; "time" ] | [ "Unix"; ("gettimeofday" | "time" | "times") ] ->
      [
        ( "nondet",
          Printf.sprintf "wall-clock read %s is nondeterministic" spelled,
          "time only inside Search_exec.Metrics, which never feeds results" );
      ]
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "randomize") ] ->
      [
        ( "nondet",
          Printf.sprintf "%s depends on runtime representation" spelled,
          "hash with an explicit, versioned function" );
      ]
  | [ "nan" ] | [ "Float"; "nan" ] ->
      [
        ( "float-hygiene",
          "literal NaN constructed",
          "model absence with option; NaN poisons comparisons and silently \
           passes (<=) guards" );
      ]
  | [ "float_of_string" ] | [ "Float"; "of_string" ] ->
      [
        ( "float-hygiene",
          "unguarded float_of_string raises on bad input",
          "use float_of_string_opt and handle the failure explicitly" );
      ]
  | [ "Mutex"; ("lock" | "unlock") ] ->
      [
        ( "lock-discipline",
          Printf.sprintf "bare %s outside an unwind guard" spelled,
          "wrap the critical section in Mutex.protect (or Fun.protect \
           ~finally) so exceptions cannot leave the mutex held" );
      ]
  | [ "Obj"; ("magic" | "repr" | "obj") ] ->
      [
        ( "unsafe-ops",
          Printf.sprintf "%s defeats the type system" spelled,
          "restructure so the types are honest" );
      ]
  | [ ("Array" | "String" | "Bytes" | "Float"); prim ]
    when String.starts_with ~prefix:"unsafe_" prim ->
      [
        ( "unsafe-ops",
          Printf.sprintf "%s skips bounds checks" spelled,
          "use the bounds-checked accessor; prove the win with bench/ \
           before ever reconsidering" );
      ]
  | [ ( "print_string" | "print_endline" | "print_newline" | "print_char"
      | "print_int" | "print_float" | "print_bytes" | "prerr_string"
      | "prerr_endline" | "prerr_newline" | "prerr_char" | "stdout"
      | "stderr" ) ]
  | [ "Printf"; ("printf" | "eprintf") ]
  | [ "Format";
      ("printf" | "eprintf" | "print_string" | "print_newline" | "print_flush")
    ] ->
      [
        ( "output-discipline",
          Printf.sprintf "direct console output via %s inside lib/" spelled,
          "library code returns data; route output through Report / Table / \
           Event_log / Metrics, or take a Format.formatter" );
      ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* poly-compare                                                        *)

(* "Safe" operands for structural (=): immediates and literals whose
   structural comparison is exactly what is meant. *)
let safe_calls =
  [
    "List.length"; "Array.length"; "String.length"; "Bytes.length";
    "Hashtbl.length"; "Queue.length"; "List.compare_lengths"; "Char.code";
    "Array.dim";
  ]

let rec safe_operand e =
  match e.exp_desc with
  | Texp_constant
      ( Const_int _ | Const_int32 _ | Const_int64 _ | Const_nativeint _
      | Const_char _ | Const_string _ ) ->
      true
  | Texp_construct ({ txt = Lident "::"; _ }, _, [ hd; tl ]) ->
      safe_operand hd && safe_operand tl
  | Texp_construct ({ txt = Lident "Some"; _ }, _, [ arg ]) -> safe_operand arg
  | Texp_construct (_, _, []) -> true (* (), [], true, None, Covered, ... *)
  | Texp_variant (_, None) -> true
  | Texp_tuple es -> List.for_all safe_operand es
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
      List.mem (resolved p) safe_calls
  | _ -> false

let floatish e = Callgraph.is_float_ty e.exp_type

(* Compound structural operands: records, tuples, non-trivial
   constructor applications — ordering or equality on these invokes
   the polymorphic runtime walk. *)
let compound_literal e =
  match e.exp_desc with
  | Texp_tuple _ | Texp_record _ | Texp_array _ -> true
  | Texp_construct (_, _, _ :: _) -> not (safe_operand e)
  | _ -> false

let eq_op = function "=" | "<>" | "==" | "!=" -> true | _ -> false
let ord_op = function "<" | "<=" | ">" | ">=" -> true | _ -> false
let cmp_op op = eq_op op || ord_op op || op = "min" || op = "max"

let compare_apply ~strict op a b =
  if eq_op op then
    let hazard =
      if strict then not (safe_operand a || safe_operand b)
      else floatish a || floatish b || compound_literal a || compound_literal b
    in
    if hazard then
      Some
        ( Printf.sprintf
            "polymorphic (%s) on operands not syntactically immediate" op,
          "use a typed equality (Float.equal, Int.equal, String.equal, \
           List.equal ...) or pattern matching" )
    else None
  else if ord_op op && (compound_literal a || compound_literal b) then
    Some
      ( Printf.sprintf "polymorphic ordering (%s) on compound values" op,
        "compare fields explicitly with typed comparators" )
  else if (op = "min" || op = "max") && (floatish a || floatish b) then
    Some
      ( Printf.sprintf "polymorphic %s on floats (NaN falls through (<=))" op,
        "use Float.min / Float.max (NaN-aware)" )
  else None

let compare_ident ~strict p lid =
  match stdlib_name p with
  | Some "compare" ->
      Some
        ( Printf.sprintf "polymorphic %s (structural, NaN-hostile)"
            (spelled lid),
          "use Float.compare / Int.compare / String.compare or a derived \
           comparator" )
  (* (=) passed as a first-class function: as dangerous as calling it,
     inside lib/ *)
  | Some op when eq_op op && strict ->
      Some
        ( Printf.sprintf "polymorphic (%s) used as a function value" op,
          "pass a typed equality instead" )
  | _ -> None

(* ------------------------------------------------------------------ *)
(* closed-variant-wildcard                                             *)

(* The repo's closed domain vocabularies: fault kinds, parameter
   regimes, sweep/certificate verdicts, induction cases.  A catch-all
   arm in a match over these swallows future constructors silently —
   exactly how a new fault model would bypass the adversary. *)
let closed_constructors =
  [
    "Crash"; "Byzantine"; "Unsolvable"; "Ratio_one"; "Searching"; "Covered";
    "Gap"; "Refuted_gap"; "Refuted_potential"; "Not_refuted"; "Inconclusive";
    "Case1"; "Case2";
  ]

let rec head_constructors (p : pattern) =
  match p.pat_desc with
  | Tpat_construct (lid, _, _, _) -> [ Longident.last lid.txt ]
  | Tpat_or (a, b, _) -> head_constructors a @ head_constructors b
  | Tpat_alias (p, _, _) -> head_constructors p
  | _ -> []

let rec is_catch_all (p : pattern) =
  match p.pat_desc with
  | Tpat_any | Tpat_var _ -> true
  | Tpat_alias (p, _, _) -> is_catch_all p
  | _ -> false

(* [arms] are the value patterns; [guarded] says whether any arm of the
   whole match carries a guard.  [try ... with] arms are never passed
   in: exception sets are open by design. *)
let wildcard_arms ~guarded arms =
  if guarded then []
  else
    match
      List.filter
        (fun c -> List.mem c closed_constructors)
        (List.concat_map head_constructors arms)
    with
    | [] -> []
    | witness :: _ ->
        List.filter_map
          (fun p ->
            if is_catch_all p then
              Some
                ( p.pat_loc,
                  Printf.sprintf
                    "catch-all arm in a match on the closed variant of %s: a \
                     new constructor would be silently swallowed"
                    witness )
            else None)
          arms

(* ------------------------------------------------------------------ *)
(* global-mutable-state                                                *)

let mutable_ctor e =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, lid, _); _ }, _) -> (
      match resolved p with
      | "ref" | "Hashtbl.create" | "Queue.create" | "Stack.create"
      | "Buffer.create" | "Dynarray.create" | "Array.make"
      | "Array.create_float" | "Array.init" | "Atomic.make" ->
          Some (spelled lid)
      | _ -> None)
  | _ -> None

let global_mutable
    (emit : string -> ?suggestion:string -> loc:Location.t -> string -> unit)
    (st : structure) =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, bindings) ->
          List.iter
            (fun vb ->
              Option.iter
                (fun ctor ->
                  emit "global-mutable-state" ~loc:vb.vb_loc
                    ~suggestion:
                      "thread the state through a [create]d handle, or guard \
                       it like Metrics' write lock"
                    (Printf.sprintf
                       "top-level mutable state (%s) is shared by every domain"
                       ctor))
                (mutable_ctor vb.vb_expr))
            bindings
      | _ -> ())
    st.str_items

(* ------------------------------------------------------------------ *)
(* the one traversal                                                   *)

let check ~file (u : Cmt_loader.unit_info) =
  let acc = ref [] in
  let emit id ?suggestion ~loc message =
    Option.iter
      (fun f -> acc := f :: !acc)
      (finding ~file ?suggestion ~loc id message)
  in
  let strict = in_lib file in
  let ident p (lid : Longident.t Location.loc) =
    List.iter
      (fun (id, message, suggestion) ->
        emit id ~loc:lid.loc ~suggestion message)
      (ident_hits (resolved p) (spelled lid));
    Option.iter
      (fun (message, suggestion) ->
        emit "poly-compare" ~loc:lid.loc ~suggestion message)
      (compare_ident ~strict p lid)
  in
  let wildcards ~guarded arms =
    List.iter
      (fun (loc, message) ->
        emit "closed-variant-wildcard" ~loc
          ~suggestion:"list the remaining constructors explicitly" message)
      (wildcard_arms ~guarded arms)
  in
  let guarded cases = List.exists (fun c -> Option.is_some c.c_guard) cases in
  let super = Tast_iterator.default_iterator in
  let expr self e =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, lid, _); _ }, args)
      when Option.fold ~none:false ~some:cmp_op (stdlib_name p) ->
        (match args with
        | [ (_, Some a); (_, Some b) ] ->
            Option.iter
              (fun (message, suggestion) ->
                emit "poly-compare" ~loc:lid.loc ~suggestion message)
              (compare_apply ~strict (resolved p) a b)
        | _ -> ());
        (* the operator ident itself is handled here: recurse only into
           the arguments *)
        List.iter
          (fun (_, a) -> Option.iter (self.Tast_iterator.expr self) a)
          args
    | _ ->
        (match e.exp_desc with
        | Texp_ident (p, lid, _) -> ident p lid
        | Texp_apply
            ( { exp_desc = Texp_ident (p, lid, _); _ },
              [ _; (_, Some { exp_desc = Texp_constant (Const_float lit); _ }) ]
            )
          when String.equal (Path.name p) "Stdlib./." -> (
            match float_of_string_opt lit with
            | Some z when Float.equal z 0. ->
                emit "float-hygiene" ~loc:lid.loc
                  "division by the float literal 0. yields inf/NaN"
            | _ -> ())
        | Texp_match (_, cases, _) ->
            wildcards ~guarded:(guarded cases)
              (List.filter_map (fun c -> fst (split_pattern c.c_lhs)) cases)
        | Texp_function { cases; _ } ->
            wildcards ~guarded:(guarded cases)
              (List.map (fun c -> c.c_lhs) cases)
        | _ -> ());
        super.expr self e
  in
  let value_description self vd =
    if
      List.exists
        (fun p -> p = "%identity" || String.starts_with ~prefix:"%obj_" p)
        vd.val_prim
    then
      emit "unsafe-ops" ~loc:vd.val_loc
        ~suggestion:"write the conversion honestly, or isolate and test it"
        (Printf.sprintf "external %S uses an unchecked primitive"
           vd.val_name.txt);
    super.value_description self vd
  in
  let it = { super with expr; value_description } in
  Option.iter
    (fun st ->
      it.structure it st;
      global_mutable emit st)
    u.structure;
  Option.iter (it.signature it) u.signature;
  !acc

(* ------------------------------------------------------------------ *)
(* mli-coverage                                                        *)

let mli_coverage sources =
  List.filter_map
    (fun path ->
      if Filename.check_suffix path ".ml" && not (List.mem (path ^ "i") sources)
      then
        finding ~file:path ~loc:(Location.in_file path)
          ~suggestion:
            "add an interface: undocumented exports become load-bearing"
          "mli-coverage" "module has no .mli"
      else None)
    sources
