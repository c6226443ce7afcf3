(* Tests for the numerical substrate: float helpers, compensated
   summation, root finding, minimisation, rationals, intervals, the
   sweep-line coverage counter, lazy sequences, statistics, tables. *)

module X = Search_numerics.Xfloat
module Kahan = Search_numerics.Kahan
module Root = Search_numerics.Root
module Minimize = Search_numerics.Minimize
module Rational = Search_numerics.Rational
module I = Search_numerics.Interval1
module Sweep = Search_numerics.Sweep
module Lazy_seq = Search_numerics.Lazy_seq
module Stats = Search_numerics.Stats
module Table = Search_numerics.Table

let checkf = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Xfloat *)

let test_approx_eq_basic () =
  check_bool "equal floats" true (X.approx_eq 1.0 1.0);
  check_bool "close floats" true (X.approx_eq 1.0 (1.0 +. 1e-12));
  check_bool "distant floats" false (X.approx_eq 1.0 1.1);
  check_bool "near zero" true (X.approx_eq 0.0 1e-12);
  check_bool "negatives" true (X.approx_eq (-2.0) (-2.0 -. 1e-12))

let test_approx_eq_scale () =
  (* relative tolerance: large magnitudes compare proportionally *)
  check_bool "large equal-ish" true (X.approx_eq 1e15 (1e15 +. 1.));
  check_bool "large different" false (X.approx_eq 1e15 (1.001e15))

let test_log_pow_conventions () =
  checkf "0^0 = 1 (log 0)" 0. (X.log_pow 0. 0.);
  checkf "x^0 = 1" 0. (X.log_pow 5. 0.);
  checkf "2^3" (3. *. log 2.) (X.log_pow 2. 3.)

(* ------------------------------------------------------------------ *)
(* Kahan *)

let kahan_sum xs = Kahan.value (List.fold_left Kahan.add Kahan.zero xs)

let test_kahan_simple () =
  checkf "empty" 0. (Kahan.value Kahan.zero);
  checkf "list" 10. (kahan_sum [ 1.; 2.; 3.; 4. ])

let test_kahan_beats_naive () =
  (* 1 followed by many tiny values: naive sum loses them *)
  let tiny = 1e-16 in
  let n = 10_000 in
  let xs = 1. :: List.init n (fun _ -> tiny) in
  let compensated = kahan_sum xs in
  let expected = 1. +. (float_of_int n *. tiny) in
  Alcotest.(check (float 1e-18)) "compensated is exact" expected compensated;
  let naive = List.fold_left ( +. ) 0. xs in
  check_bool "naive loses precision" true (naive < expected)

let test_kahan_alternating () =
  (* large cancellations: Neumaier handles the big-term-late case *)
  let xs = [ 1.; 1e100; 1.; -1e100 ] in
  checkf "neumaier cancellation" 2. (kahan_sum xs)

(* ------------------------------------------------------------------ *)
(* Root *)

let test_brent_no_bracket () =
  Alcotest.check_raises "same sign raises"
    (Search_numerics.Search_error.Error
       (Search_numerics.Search_error.Invalid_input
          {
            where = "Root.brent";
            what = "f(1)=1 and f(2)=2 have the same sign";
          }))
    (fun () -> ignore (Root.brent ~f:(fun x -> x) 1. 2.))

let test_brent_polynomial () =
  (* x^3 - 2x - 5 has a root near 2.0945514815 *)
  let f x = (x ** 3.) -. (2. *. x) -. 5. in
  let r = Root.brent ~f 1. 3. in
  Alcotest.(check (float 1e-9)) "cubic root" 2.0945514815423265 r

let test_brent_log3 () =
  let f x = exp x -. 3. in
  Alcotest.(check (float 1e-9)) "root is log 3" (log 3.) (Root.brent ~f 0. 2.)

let test_brent_transcendental () =
  (* the cow-path fixed point: 2 a^2/(a-1) minimal at a = 2, check root of
     derivative-like expression a^2 - 2a = 0 on (1, 3] *)
  let f a = (a *. a) -. (2. *. a) in
  Alcotest.(check (float 1e-9)) "a = 2" 2. (Root.brent ~f 1.5 3.)

(* ------------------------------------------------------------------ *)
(* Minimize *)

let test_golden_parabola () =
  let x, v = Minimize.grid_then_golden ~f:(fun x -> (x -. 3.) ** 2.) 0. 10. in
  Alcotest.(check (float 1e-6)) "argmin" 3. x;
  Alcotest.(check (float 1e-9)) "min" 0. v

let test_golden_asymmetric () =
  (* the exponential-strategy objective a^2/(a-1), minimum at a = 2 *)
  let f a = a *. a /. (a -. 1.) in
  let x, v = Minimize.grid_then_golden ~f 1.01 10. in
  Alcotest.(check (float 1e-6)) "alpha*" 2. x;
  Alcotest.(check (float 1e-6)) "value 4" 4. v

let test_grid_then_golden () =
  let f x = Float.abs (x -. 1.7) in
  let x, _ = Minimize.grid_then_golden ~samples:16 ~f 0. 10. in
  Alcotest.(check (float 1e-6)) "argmin of |x - 1.7|" 1.7 x

(* ------------------------------------------------------------------ *)
(* Rational *)

(* [approximations_above] is the one constructor: its first element is
   [ceil (2 target) / 2] in lowest terms. *)
let first_above target =
  List.hd (Rational.approximations_above ~target ~count:1)

let test_rational_normalisation () =
  let r = first_above 3. in
  check_int "6/2 reduces: num" 3 (Rational.num r);
  check_int "den" 1 (Rational.den r)

let test_rational_to_float () = checkf "3/2" 1.5 (Rational.to_float (first_above 1.5))

let test_rational_approximations_above () =
  let target = 2.3 in
  let approxs = Rational.approximations_above ~target ~count:6 in
  check_bool "several approximants" true (List.length approxs >= 3);
  check_bool "at most count" true (List.length approxs <= 6);
  List.iter
    (fun r -> check_bool "above target" true (Rational.to_float r >= target))
    approxs;
  (* strictly decreasing toward the target *)
  let dists = List.map (fun r -> Rational.to_float r -. target) approxs in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  check_bool "converging" true (decreasing dists);
  (* an exactly-rational target is reached and the sequence stops *)
  let exact = Rational.approximations_above ~target:1.5 ~count:6 in
  check_bool "exact target found" true
    (List.exists (fun r -> Rational.num r = 3 && Rational.den r = 2) exact)

let test_rational_pp () =
  Alcotest.(check string) "fraction" "3/2"
    (Format.asprintf "%a" Rational.pp (first_above 1.5));
  Alcotest.(check string) "integer" "3"
    (Format.asprintf "%a" Rational.pp (first_above 3.))

(* ------------------------------------------------------------------ *)
(* Interval1 *)

let test_interval_mem () =
  let c = I.closed 1. 3. and o = I.left_open 1. 3. in
  check_bool "closed left end" true (I.mem 1. c);
  check_bool "open left end" false (I.mem 1. o);
  check_bool "right end both" true (I.mem 3. c && I.mem 3. o);
  check_bool "outside" false (I.mem 4. c)

let test_interval_constructors () =
  Alcotest.check_raises "closed backwards"
    (Invalid_argument "Interval1.make: lo > hi") (fun () ->
      ignore (I.closed 3. 1.));
  Alcotest.check_raises "open empty"
    (Invalid_argument "Interval1.make: lo >= hi (open)") (fun () ->
      ignore (I.left_open 1. 1.))

let test_interval_compare_by_left () =
  let a = I.closed 1. 5. and b = I.left_open 1. 5. and c = I.closed 2. 3. in
  check_bool "closed before open at same point" true (I.compare_by_left a b < 0);
  check_bool "by left value" true (I.compare_by_left a c < 0)

(* ------------------------------------------------------------------ *)
(* Sweep *)

let test_sweep_covered () =
  let ivs = [ I.closed 0. 5.; I.closed 0. 5.; I.closed 2. 8. ] in
  check_bool "2-fold on [1,5]" true
    (Sweep.check ~demand:2 ~within:(1., 5.) ivs = Sweep.Covered)

let test_sweep_gap () =
  let ivs = [ I.closed 0. 2.; I.closed 3. 5. ] in
  match Sweep.check ~demand:1 ~within:(1., 5.) ivs with
  | Sweep.Covered -> Alcotest.fail "expected gap"
  | Sweep.Gap { from_; upto; at; multiplicity } ->
      checkf "gap starts at 2" 2. from_;
      checkf "gap ends at 3" 3. upto;
      check_bool "witness inside" true (2. < at && at < 3.);
      check_int "multiplicity zero" 0 multiplicity

let test_sweep_multiplicity_at () =
  let ivs = [ I.closed 0. 2.; I.left_open 1. 3.; I.closed 1. 4. ] in
  check_int "at 1: open excluded" 2 (Sweep.multiplicity_at 1. ivs);
  check_int "at 1.5: all three" 3 (Sweep.multiplicity_at 1.5 ivs);
  check_int "at 3.5" 1 (Sweep.multiplicity_at 3.5 ivs)

let test_sweep_profile () =
  let ivs = [ I.closed 0. 2.; I.closed 1. 3. ] in
  let profile = Sweep.coverage_profile ~within:(0., 3.) ivs in
  check_int "three pieces" 3 (List.length profile);
  let mults = List.map (fun (_, _, c) -> c) profile in
  Alcotest.(check (list int)) "1,2,1" [ 1; 2; 1 ] mults

let test_sweep_min_multiplicity () =
  let ivs = [ I.closed 0. 2.; I.closed 1. 3. ] in
  check_int "min over [0,3]" 1 (Sweep.min_multiplicity ~within:(0., 3.) ivs);
  check_int "min over [1,2]" 2 (Sweep.min_multiplicity ~within:(1., 2.) ivs);
  check_int "empty" 0 (Sweep.min_multiplicity ~within:(0., 3.) [])

let test_sweep_demand_boundary () =
  (* half-open left ends at shared endpoints must not create phantom gaps:
     (1,2] and [2,3] together 1-cover [1.5, 3] interiors *)
  let ivs = [ I.left_open 1. 2.; I.closed 2. 3. ] in
  check_bool "no phantom gap" true
    (Sweep.check ~demand:1 ~within:(1.5, 3.) ivs = Sweep.Covered)

(* ------------------------------------------------------------------ *)
(* Lazy_seq *)

let prefix s n = List.init n (fun i -> Lazy_seq.get s (i + 1))

let test_lazy_seq_get_prefix () =
  let s = Lazy_seq.of_fun (fun i -> i * i) in
  check_int "get 3" 9 (Lazy_seq.get s 3);
  Alcotest.(check (list int)) "prefix" [ 1; 4; 9; 16 ] (prefix s 4)

let test_lazy_seq_memoises () =
  let calls = ref 0 in
  let s =
    Lazy_seq.of_fun (fun i ->
        incr calls;
        i)
  in
  ignore (Lazy_seq.get s 5);
  ignore (Lazy_seq.get s 5);
  check_int "computed once" 1 !calls

let test_lazy_seq_bad_index () =
  let s = Lazy_seq.of_fun (fun i -> i) in
  Alcotest.check_raises "index 0"
    (Invalid_argument "Lazy_seq.get: index must be >= 1") (fun () ->
      ignore (Lazy_seq.get s 0))

let test_lazy_seq_of_list_then () =
  let s = Lazy_seq.of_list_then [ 10; 20 ] (fun i -> i) in
  Alcotest.(check (list int)) "prefix then tail" [ 10; 20; 3; 4 ]
    (prefix s 4)

let test_lazy_seq_unfold () =
  let s = Lazy_seq.unfold ~init:1 (fun st -> (st, st * 2)) in
  Alcotest.(check (list int)) "powers of two" [ 1; 2; 4; 8 ]
    (prefix s 4);
  (* out-of-order access must still be consistent *)
  let s2 = Lazy_seq.unfold ~init:0 (fun st -> (st + 1, st + 1)) in
  check_int "deep first" 7 (Lazy_seq.get s2 7);
  check_int "then shallow" 2 (Lazy_seq.get s2 2)

let test_lazy_seq_deep_index_no_stack_overflow () =
  (* the unfold walk must be iterative: a 500k-deep first access used to
     overflow the stack with a recursive ensure *)
  let s = Lazy_seq.unfold ~init:0 (fun st -> (st + 1, st + 1)) in
  check_int "deep unfold" 500_000 (Lazy_seq.get s 500_000)

let test_lazy_seq_partial_sums () =
  let s = Lazy_seq.of_fun (fun i -> float_of_int i) in
  let sums = Lazy_seq.partial_sums s in
  checkf "1+2+3" 6. (Lazy_seq.get sums 3);
  checkf "first" 1. (Lazy_seq.get sums 1)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_sup () =
  let s = Stats.sup_empty in
  check_bool "empty witness" true (Stats.sup_witness s = None);
  let s = Stats.sup_add s ~key:"a" ~value:1. in
  let s = Stats.sup_add s ~key:"b" ~value:3. in
  let s = Stats.sup_add s ~key:"c" ~value:2. in
  checkf "sup value" 3. (Stats.sup_value s);
  check_bool "witness b" true (Stats.sup_witness s = Some "b")

(* Regression: a NaN fed to the supremum used to be swallowed (every
   [>] comparison against NaN is false), silently under-reporting the
   worst case; it must surface as a typed error instead. *)
let test_stats_sup_nan_raises () =
  let s = Stats.sup_add Stats.sup_empty ~key:"a" ~value:1. in
  Alcotest.check_raises "NaN surfaces"
    (Search_numerics.Search_error.Error
       (Search_numerics.Search_error.Non_convergence
          {
            where = "Stats.sup_add";
            steps = 0;
            detail = "supremum fed a NaN sample";
          }))
    (fun () -> ignore (Stats.sup_add s ~key:"bad" ~value:Float.nan))

let test_stats_sup_infinity_legal () =
  (* infinity is the adversary's escape verdict (ratio_cap exceeded):
     a legitimate sample, not an error *)
  let s = Stats.sup_add Stats.sup_empty ~key:"a" ~value:2. in
  let s = Stats.sup_add s ~key:"esc" ~value:infinity in
  check_bool "sup is inf" true (Float.equal (Stats.sup_value s) infinity);
  check_bool "witness esc" true (Stats.sup_witness s = Some "esc")

let test_stats_nearest_rank () =
  let eq = Option.equal Float.equal in
  check_bool "empty" true (eq None (Stats.nearest_rank [||] ~p:50.));
  check_bool "singleton p0" true
    (eq (Some 7.) (Stats.nearest_rank [| 7. |] ~p:0.));
  check_bool "singleton p100" true
    (eq (Some 7.) (Stats.nearest_rank [| 7. |] ~p:100.));
  let a = [| 1.; 2.; 3.; 4. |] in
  check_bool "p50" true (eq (Some 2.) (Stats.nearest_rank a ~p:50.));
  check_bool "p75" true (eq (Some 3.) (Stats.nearest_rank a ~p:75.));
  check_bool "p99" true (eq (Some 4.) (Stats.nearest_rank a ~p:99.));
  Alcotest.check_raises "bad p"
    (Invalid_argument "Stats.nearest_rank: need 0 <= p <= 100") (fun () ->
      ignore (Stats.nearest_rank a ~p:101.))

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t = Table.create [ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "x"; "1.5" ];
  Table.add_row t [ "long-name"; "2" ];
  let s = Table.render t in
  check_bool "has header" true
    (String.length s > 0 && String.sub s 0 1 = "|");
  check_bool "aligned right"
    true
    (let lines = String.split_on_char '\n' s in
     List.exists (fun l -> String.length l > 0 && String.ends_with ~suffix:"  1.5 |" l) lines)

let test_table_arity () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Table.add_row: arity mismatch") (fun () ->
      Table.add_row t [ "x"; "y" ])

let test_table_cells () =
  Alcotest.(check string) "float" "1.50" (Table.cell_f ~decimals:2 1.5);
  Alcotest.(check string) "inf" "inf" (Table.cell_f infinity);
  Alcotest.(check string) "nan" "nan" (Table.cell_f nan);
  Alcotest.(check string) "int" "42" (Table.cell_i 42)


(* ------------------------------------------------------------------ *)
(* Json *)

module Json = Search_numerics.Json

let test_json_print_atoms () =
  Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
  Alcotest.(check string) "true" "true" (Json.to_string (Json.Bool true));
  Alcotest.(check string) "int-like" "42" (Json.to_string (Json.Number 42.));
  Alcotest.(check string) "float" "1.5" (Json.to_string (Json.Number 1.5));
  Alcotest.(check string) "string escape" "\"a\\nb\""
    (Json.to_string (Json.String "a\nb"))

let test_json_print_nested () =
  let v =
    Json.Assoc
      [ ("xs", Json.List [ Json.Number 1.; Json.Number 2. ]);
        ("ok", Json.Bool false) ]
  in
  Alcotest.(check string) "compact" "{\"xs\":[1,2],\"ok\":false}"
    (Json.to_string v)

let test_json_nonfinite_rejected () =
  match Json.to_string (Json.Number infinity) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "infinity serialised"

let test_json_parse_basics () =
  let ok s v =
    match Json.of_string s with
    | Ok got -> check_bool s true (got = v)
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok "null" Json.Null;
  ok " true " (Json.Bool true);
  ok "-2.5e2" (Json.Number (-250.));
  (* integer literals on both sides of the 15-digit fast path *)
  ok "-007" (Json.Number (-7.));
  ok "999999999999999" (Json.Number 999999999999999.);
  ok "-9007199254740993" (Json.Number (-9007199254740992.));
  ok "9999999999999999999" (Json.Number 1e19);
  (match Json.of_string "-0" with
  | Ok (Json.Number z) -> check_bool "-0 keeps its sign" true (Float.sign_bit z)
  | _ -> Alcotest.fail "-0 did not parse");
  ok "\"hi\"" (Json.String "hi");
  ok "[]" (Json.List []);
  ok "{}" (Json.Assoc []);
  ok "[1, [2], {\"a\": 3}]"
    (Json.List
       [ Json.Number 1.; Json.List [ Json.Number 2. ];
         Json.Assoc [ ("a", Json.Number 3.) ] ])

let test_json_parse_escapes () =
  (match Json.of_string "\"a\\nb\\u0041\"" with
  | Ok (Json.String s) -> Alcotest.(check string) "escapes" "a\nbA" s
  | _ -> Alcotest.fail "bad escape parse");
  match Json.of_string "\"caf\\u00e9\"" with
  | Ok (Json.String s) -> Alcotest.(check string) "utf8" "caf\xc3\xa9" s
  | _ -> Alcotest.fail "bad unicode parse"

let test_json_parse_errors () =
  let bad s =
    match Json.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" s
  in
  bad "";
  bad "[1,";
  bad "{\"a\" 1}";
  bad "tru";
  bad "1 2";
  bad "\"unterminated"

let test_json_accessors () =
  let v = Json.Assoc [ ("x", Json.Number 3.); ("s", Json.String "y") ] in
  check_bool "member hit" true
    (match Json.member "x" v with
    | Some (Json.Number x) -> Float.equal x 3.
    | _ -> false);
  check_bool "member miss" true (Json.member "z" v = None);
  check_bool "to_int" true (Json.to_int (Json.Number 3.) = Some 3);
  check_bool "to_int non-integral" true (Json.to_int (Json.Number 3.5) = None);
  check_bool "to_bool" true (Json.to_bool (Json.Bool true) = Some true)

(* every error message and offset is part of the interface: the serve
   daemon forwards them to clients inside its invalid-input errors *)
let test_json_error_corpus () =
  List.iter
    (fun (doc, want) ->
      match Json.of_string doc with
      | Ok _ -> Alcotest.failf "accepted %S" doc
      | Error got -> Alcotest.(check string) (Printf.sprintf "%S" doc) want got)
    [
      ("", "at offset 0: unexpected end of input");
      ("   ", "at offset 3: unexpected end of input");
      (" \n\t", "at offset 3: unexpected end of input");
      ("[1,", "at offset 3: unexpected end of input");
      ("[1 2]", "at offset 3: expected ',' or ']'");
      ("{\"a\" 1}", "at offset 5: expected ':', got '1'");
      ("{\"a\":1", "at offset 6: expected ',' or '}'");
      ("{\"a\":1,}", "at offset 7: expected '\"', got '}'");
      ("{a:1}", "at offset 1: expected '\"', got 'a'");
      ("{\"a\":}", "at offset 5: unexpected character '}'");
      ("tru", "at offset 3: expected 'e', got end of input");
      ("trux", "at offset 3: expected 'e', got 'x'");
      ("nul", "at offset 3: expected 'l', got end of input");
      ("fals", "at offset 4: expected 'e', got end of input");
      ("1 2", "at offset 2: trailing garbage");
      ("\"unterminated", "at offset 13: unterminated string");
      ("\"bad \\x escape\"", "at offset 6: bad escape '\\x'");
      ("\"trunc\\", "at offset 7: truncated escape");
      ("\"\\u12\"", "at offset 3: truncated \\u escape");
      ("\"\\u\"", "at offset 3: truncated \\u escape");
      ("\"\\u00zz\"", "at offset 3: bad \\u escape");
      ("\"\\uG000\"", "at offset 3: bad \\u escape");
      ("-", "at offset 1: bad number literal \"-\"");
      ("1.2.3", "at offset 5: bad number literal \"1.2.3\"");
      ("1e", "at offset 2: bad number literal \"1e\"");
      ("--1", "at offset 3: bad number literal \"--1\"");
      ("1+2", "at offset 3: bad number literal \"1+2\"");
      ("0x10", "at offset 1: trailing garbage");
      ("@", "at offset 0: unexpected character '@'");
      ("[1,]", "at offset 3: unexpected character ']'");
      ("{\"a\":1}}", "at offset 7: trailing garbage");
      ("[\"a\" \"b\"]", "at offset 5: expected ',' or ']'");
      ("[[[[", "at offset 4: unexpected end of input");
      ("\255", "at offset 0: unexpected character '\255'");
      ("nan", "at offset 1: expected 'u', got 'a'");
      ("Infinity", "at offset 0: unexpected character 'I'");
      (".5", "at offset 0: unexpected character '.'");
      ("+1", "at offset 0: unexpected character '+'");
      ( "{\"id\":7,\"req\":{\"op\":\"bound\",\"m\":2,\"k\":3,\"f\":1}",
        "at offset 46: expected ',' or '}'" );
      ("{\"id\":7 \"req\":{}}", "at offset 8: expected ',' or '}'");
      ("[\"a\\nb\",tr]", "at offset 10: expected 'u', got ']'");
      ( "{\"k\":\"v\",\"k2\":[1,{\"x\":nulL}]}",
        "at offset 25: expected 'l', got 'L'" );
    ]

(* a \u escape is exactly four hex digits: OCaml's own integer syntax
   (underscores) must not leak in *)
let test_json_unicode_escape_is_four_hex_digits () =
  List.iter
    (fun doc ->
      match Json.of_string doc with
      | Ok _ -> Alcotest.failf "accepted %S" doc
      | Error got ->
          Alcotest.(check string) doc "at offset 3: bad \\u escape" got)
    [ {|"\u0_41"|}; {|"\u004_"|}; {|"\u_041"|}; {|"\u00_4"|} ];
  match Json.of_string {|"\u0041\u00E9\uabcd"|} with
  | Ok (Json.String s) ->
      Alcotest.(check string) "both cases of hex" "A\xc3\xa9\xea\xaf\x8d" s
  | _ -> Alcotest.fail "four-digit escapes rejected"

(* [int_of_float] wraps: 1e300 used to read as 0, 1e19 as a negative
   number.  Only [-2^62, 2^62) is an [int]. *)
let test_json_to_int_range () =
  let check name want x =
    Alcotest.(check (option int)) name want (Json.to_int (Json.Number x))
  in
  check "1e300" None 1e300;
  check "-1e300" None (-1e300);
  check "1e19" None 1e19;
  check "2^62" None 0x1p62;
  check "-2^62 is min_int" (Some min_int) (-0x1p62);
  check "largest float below 2^62" (Some (max_int - 511)) (Float.pred 0x1p62);
  check "-0" (Some 0) (-0.);
  check "nan" None nan;
  check "inf" None infinity

(* ------------------------------------------------------------------ *)
(* the one float renderer, against the Printf formulation it replaced *)

let printf_shortest x =
  let s = Printf.sprintf "%g" x in
  match float_of_string_opt s with
  | Some y when Float.equal y x -> s
  | Some _ | None -> Printf.sprintf "%.17g" x

let printf_json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else printf_shortest x

let renders_like_printf x =
  let want = printf_shortest x in
  String.equal (X.to_string x) want
  && String.equal (Search_numerics.Csv_out.float_cell x) want
  && ((not (Float.is_finite x))
     || String.equal (Json.number_to_string x) (printf_json_number x))

let test_float_render_edges () =
  List.iter
    (fun x ->
      check_bool (Printf.sprintf "%h" x) true (renders_like_printf x))
    [
      0.; -0.; 1.; -1.; 0.1; 1. /. 3.; 5.233069471915198; 1.5874010519681994;
      1e15; -1e15; 1e15 -. 1.; -.(1e15 -. 1.); 1e15 +. 2.; Float.pred 1e15;
      Float.succ 1e15; 999999999999999.5; 123456789.; 1e6; 1e21; 1e-7;
      0x1p52; 0x1p53 +. 2.; 0x1p62; 5e-324; -5e-324; Float.pred min_float;
      min_float; max_float; -.max_float; infinity; neg_infinity; nan;
      Float.neg nan;
    ]

let prop_float_render_matches_printf =
  let open QCheck2.Gen in
  let bits = map Int64.float_of_bits ui64 in
  let subnormal =
    map
      (fun b -> Int64.float_of_bits (Int64.logand b 0x800F_FFFF_FFFF_FFFFL))
      ui64
  in
  let near_1e15 = map (fun d -> 1e15 +. float_of_int d) (int_range (-3) 3) in
  let integral = map (fun i -> float_of_int i) int in
  QCheck2.Test.make ~count:2000 ~name:"float renderer matches printf"
    ~print:(Printf.sprintf "%h")
    (oneof [ bits; subnormal; near_1e15; integral; float ])
    renders_like_printf

let rec json_gen depth =
  let open QCheck2.Gen in
  if depth = 0 then
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun x -> Json.Number x) (float_range (-1e6) 1e6);
        map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 10)) ]
  else
    oneof
      [ json_gen 0;
        map (fun l -> Json.List l) (list_size (int_range 0 4) (json_gen (depth - 1)));
        map
          (fun kvs -> Json.Assoc kvs)
          (list_size (int_range 0 4)
             (pair (string_size ~gen:printable (int_range 1 6)) (json_gen (depth - 1)))) ]

let prop_json_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"json print/parse roundtrip" (json_gen 3)
    (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> v = v'
      | Error _ -> false)

let prop_json_pretty_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"pretty json roundtrips too" (json_gen 2)
    (fun v ->
      match Json.of_string (Json.to_string ~pretty:true v) with
      | Ok v' -> v = v'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* properties *)

let prop_kahan_matches_exact =
  QCheck2.Test.make ~count:200 ~name:"kahan sum matches sorted-exact sum"
    QCheck2.Gen.(list_size (int_range 0 50) (float_range (-1e6) 1e6))
    (fun xs ->
      let k = kahan_sum xs in
      let reference = List.fold_left ( +. ) 0. (List.sort Float.compare xs) in
      Float.abs (k -. reference)
      <= 1e-6 *. Float.max 1. (Float.abs reference))

let prop_brent_finds_root =
  QCheck2.Test.make ~count:200 ~name:"brent finds root of shifted cubic"
    QCheck2.Gen.(float_range (-5.) 5.)
    (fun c ->
      (* f(x) = x^3 - c has root c^(1/3) in a bracket around it *)
      let f x = (x ** 3.) -. c in
      let r = Root.brent ~f (-10.) 10. in
      Float.abs (f r) < 1e-6)

let prop_sweep_profile_partitions =
  (* profile pieces partition the window and multiplicities match
     pointwise counting at midpoints *)
  let gen =
    QCheck2.Gen.(
      list_size (int_range 0 12)
        (pair (float_range 0. 10.) (float_range 0. 10.)))
  in
  QCheck2.Test.make ~count:200 ~name:"sweep profile partitions window" gen
    (fun pairs ->
      let ivs =
        List.filter_map
          (fun (a, b) ->
            let lo = Float.min a b and hi = Float.max a b in
            if lo < hi then Some (I.closed lo hi) else None)
          pairs
      in
      let profile = Sweep.coverage_profile ~within:(0., 10.) ivs in
      let rec contiguous last = function
        | [] -> Float.equal last 10.
        | (a, b, c) :: rest ->
            Float.equal a last && b > a
            && c = Sweep.multiplicity_at (0.5 *. (a +. b)) ivs
            && contiguous b rest
      in
      contiguous 0. profile)

let properties =
  Fixture.properties
    [
      prop_json_roundtrip;
      prop_json_pretty_roundtrip;
      prop_kahan_matches_exact;
      prop_brent_finds_root;
      prop_sweep_profile_partitions;
      prop_float_render_matches_printf;
    ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "numerics"
    [
      ( "xfloat",
        [
          tc "approx_eq basic" `Quick test_approx_eq_basic;
          tc "approx_eq scale" `Quick test_approx_eq_scale;
          tc "log_pow conventions" `Quick test_log_pow_conventions;
        ] );
      ( "kahan",
        [
          tc "simple" `Quick test_kahan_simple;
          tc "beats naive" `Quick test_kahan_beats_naive;
          tc "alternating" `Quick test_kahan_alternating;
        ] );
      ( "root",
        [
          tc "brent no bracket" `Quick test_brent_no_bracket;
          tc "brent polynomial" `Quick test_brent_polynomial;
          tc "brent matches log 3" `Quick test_brent_log3;
          tc "brent transcendental" `Quick test_brent_transcendental;
        ] );
      ( "minimize",
        [
          tc "golden parabola" `Quick test_golden_parabola;
          tc "golden asymmetric" `Quick test_golden_asymmetric;
          tc "grid then golden" `Quick test_grid_then_golden;
        ] );
      ( "rational",
        [
          tc "normalisation" `Quick test_rational_normalisation;
          tc "to_float" `Quick test_rational_to_float;
          tc "approximations above" `Quick test_rational_approximations_above;
          tc "pp" `Quick test_rational_pp;
        ] );
      ( "interval1",
        [
          tc "mem" `Quick test_interval_mem;
          tc "constructors" `Quick test_interval_constructors;
          tc "compare_by_left" `Quick test_interval_compare_by_left;
        ] );
      ( "sweep",
        [
          tc "covered" `Quick test_sweep_covered;
          tc "gap" `Quick test_sweep_gap;
          tc "multiplicity_at" `Quick test_sweep_multiplicity_at;
          tc "profile" `Quick test_sweep_profile;
          tc "min multiplicity" `Quick test_sweep_min_multiplicity;
          tc "shared endpoints" `Quick test_sweep_demand_boundary;
        ] );
      ( "lazy_seq",
        [
          tc "get/prefix" `Quick test_lazy_seq_get_prefix;
          tc "memoises" `Quick test_lazy_seq_memoises;
          tc "bad index" `Quick test_lazy_seq_bad_index;
          tc "of_list_then" `Quick test_lazy_seq_of_list_then;
          tc "unfold" `Quick test_lazy_seq_unfold;
          tc "partial sums" `Quick test_lazy_seq_partial_sums;
          tc "deep index" `Quick test_lazy_seq_deep_index_no_stack_overflow;
        ] );
      ( "stats",
        [
          tc "sup tracking" `Quick test_stats_sup;
          tc "sup NaN raises" `Quick test_stats_sup_nan_raises;
          tc "sup infinity legal" `Quick test_stats_sup_infinity_legal;
          tc "nearest rank" `Quick test_stats_nearest_rank;
        ] );
      ( "table",
        [
          tc "render" `Quick test_table_render;
          tc "arity" `Quick test_table_arity;
          tc "cells" `Quick test_table_cells;
        ] );
      ( "json",
        [
          tc "print atoms" `Quick test_json_print_atoms;
          tc "print nested" `Quick test_json_print_nested;
          tc "nonfinite rejected" `Quick test_json_nonfinite_rejected;
          tc "parse basics" `Quick test_json_parse_basics;
          tc "parse escapes" `Quick test_json_parse_escapes;
          tc "parse errors" `Quick test_json_parse_errors;
          tc "accessors" `Quick test_json_accessors;
          tc "error corpus" `Quick test_json_error_corpus;
          tc "unicode escapes take four hex digits" `Quick
            test_json_unicode_escape_is_four_hex_digits;
          tc "to_int range" `Quick test_json_to_int_range;
          tc "float render edges" `Quick test_float_render_edges;
        ] );
      ("properties", properties);
    ]
