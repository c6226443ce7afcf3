type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

(* ------------------------------------------------------------------ *)
(* printing *)

let needs_escape c = Char.equal c '"' || Char.equal c '\\' || Char.code c < 0x20

let escape_string buf s =
  Buffer.add_char buf '"';
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

let number_to_string x =
  if not (Float.is_finite x) then
    invalid_arg "Json.to_string: non-finite number";
  if Float.is_integer x && Float.abs x < 1e15 then
    (* the bytes of [%.0f]: exact below 1e15, and [-0.] keeps its sign *)
    if Float.sign_bit x && Float.equal x 0. then "-0"
    else string_of_int (int_of_float x)
  else Xfloat.to_string x

let to_string ?(pretty = false) t =
  let buf = Buffer.create 256 in
  let indent n = if pretty then Buffer.add_string buf (String.make (2 * n) ' ') in
  let newline () = if pretty then Buffer.add_char buf '\n' in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Number x -> Buffer.add_string buf (number_to_string x)
    | String s -> escape_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        newline ();
        List.iteri
          (fun i item ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              newline ()
            end;
            indent (depth + 1);
            go (depth + 1) item)
          items;
        newline ();
        indent depth;
        Buffer.add_char buf ']'
    | Assoc [] -> Buffer.add_string buf "{}"
    | Assoc fields ->
        Buffer.add_char buf '{';
        newline ();
        List.iteri
          (fun i (k, v) ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              newline ()
            end;
            indent (depth + 1);
            escape_string buf k;
            Buffer.add_string buf (if pretty then ": " else ":");
            go (depth + 1) v)
          fields;
        newline ();
        indent depth;
        Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* parsing: recursive descent over a string with an index.  Looking at
   a byte is [String.get] behind an explicit end check, so scanning
   allocates nothing; values are the only allocations. *)

exception Parse_error of int * string

type cursor = { s : string; mutable pos : int }

let fail c msg = raise (Parse_error (c.pos, msg))
let looking_at c ch = c.pos < String.length c.s && Char.equal c.s.[c.pos] ch

let expect c ch =
  if c.pos >= String.length c.s then
    fail c (Printf.sprintf "expected '%c', got end of input" ch)
  else if Char.equal c.s.[c.pos] ch then c.pos <- c.pos + 1
  else fail c (Printf.sprintf "expected '%c', got '%c'" ch c.s.[c.pos])

let expect_word c w =
  for i = 0 to String.length w - 1 do
    expect c w.[i]
  done

let rec skip_ws c =
  if c.pos < String.length c.s then
    match c.s.[c.pos] with
    | ' ' | '\t' | '\n' | '\r' ->
        c.pos <- c.pos + 1;
        skip_ws c
    | _ -> ()

(* index of the first '"' or '\\' at or after [i], or the length *)
let rec scan_plain s i =
  if i >= String.length s then i
  else match s.[i] with '"' | '\\' -> i | _ -> scan_plain s (i + 1)

let hex_value = function
  | '0' .. '9' as h -> Char.code h - Char.code '0'
  | 'a' .. 'f' as h -> Char.code h - Char.code 'a' + 10
  | 'A' .. 'F' as h -> Char.code h - Char.code 'A' + 10
  | _ -> -1

(* exactly four hex digits at the cursor, which stays put *)
let hex4 c =
  let rec go i acc =
    if i = 4 then acc
    else
      let d = hex_value c.s.[c.pos + i] in
      if d < 0 then fail c "bad \\u escape" else go (i + 1) ((acc lsl 4) lor d)
  in
  go 0 0

(* encode a BMP code point as UTF-8 *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

(* the rest of a string that has escapes: plain runs are copied whole *)
let rec string_tail c buf =
  let n = String.length c.s in
  let stop = scan_plain c.s c.pos in
  Buffer.add_substring buf c.s c.pos (stop - c.pos);
  c.pos <- stop;
  if stop >= n then fail c "unterminated string"
  else if Char.equal c.s.[stop] '"' then c.pos <- stop + 1
  else begin
    c.pos <- stop + 1;
    if c.pos >= n then fail c "truncated escape";
    let unescaped ch =
      Buffer.add_char buf ch;
      c.pos <- c.pos + 1
    in
    (match c.s.[c.pos] with
    | '"' -> unescaped '"'
    | '\\' -> unescaped '\\'
    | '/' -> unescaped '/'
    | 'n' -> unescaped '\n'
    | 't' -> unescaped '\t'
    | 'r' -> unescaped '\r'
    | 'b' -> unescaped '\b'
    | 'f' -> unescaped '\012'
    | 'u' ->
        c.pos <- c.pos + 1;
        if c.pos + 4 > n then fail c "truncated \\u escape";
        let code = hex4 c in
        c.pos <- c.pos + 4;
        add_utf8 buf code
    | ch -> fail c (Printf.sprintf "bad escape '\\%c'" ch));
    string_tail c buf
  end

let parse_string c =
  expect c '"';
  let start = c.pos in
  let stop = scan_plain c.s start in
  if stop < String.length c.s && Char.equal c.s.[stop] '"' then begin
    c.pos <- stop + 1;
    String.sub c.s start (stop - start)
  end
  else begin
    let buf = Buffer.create 16 in
    string_tail c buf;
    Buffer.contents buf
  end

let rec scan_number s i =
  if i >= String.length s then i
  else
    match s.[i] with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> scan_number s (i + 1)
    | _ -> i

(* the value of the decimal digits in [s.[i..stop-1]], or -1 if another
   character occurs *)
let rec digits_value s i stop acc =
  if i >= stop then acc
  else
    match s.[i] with
    | '0' .. '9' as d ->
        digits_value s (i + 1) stop ((acc * 10) + Char.code d - Char.code '0')
    | _ -> -1

let parse_number c =
  let start = c.pos in
  let stop = scan_number c.s start in
  c.pos <- stop;
  (* an optional '-' and at most 15 digits is an exact float: skip
     [float_of_string] and the substring it needs *)
  let neg = Char.equal c.s.[start] '-' in
  let first = if neg then start + 1 else start in
  let len = stop - first in
  let v = if len >= 1 && len <= 15 then digits_value c.s first stop 0 else -1 in
  if v >= 0 then Number (if neg then -.float_of_int v else float_of_int v)
  else
    let lit = String.sub c.s start (stop - start) in
    match float_of_string_opt lit with
    | Some x -> Number x
    | None -> fail c (Printf.sprintf "bad number literal %S" lit)

let rec parse_value c =
  skip_ws c;
  if c.pos >= String.length c.s then fail c "unexpected end of input";
  match c.s.[c.pos] with
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if looking_at c '}' then begin
        c.pos <- c.pos + 1;
        Assoc []
      end
      else Assoc (fields c [])
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if looking_at c ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else List (items c [])
  | '"' -> String (parse_string c)
  | 't' ->
      expect_word c "true";
      Bool true
  | 'f' ->
      expect_word c "false";
      Bool false
  | 'n' ->
      expect_word c "null";
      Null
  | '-' | '0' .. '9' -> parse_number c
  | ch -> fail c (Printf.sprintf "unexpected character '%c'" ch)

and fields c acc =
  skip_ws c;
  let key = parse_string c in
  skip_ws c;
  expect c ':';
  let v = parse_value c in
  skip_ws c;
  if looking_at c ',' then begin
    c.pos <- c.pos + 1;
    fields c ((key, v) :: acc)
  end
  else if looking_at c '}' then begin
    c.pos <- c.pos + 1;
    List.rev ((key, v) :: acc)
  end
  else fail c "expected ',' or '}'"

and items c acc =
  let v = parse_value c in
  skip_ws c;
  if looking_at c ',' then begin
    c.pos <- c.pos + 1;
    items c (v :: acc)
  end
  else if looking_at c ']' then begin
    c.pos <- c.pos + 1;
    List.rev (v :: acc)
  end
  else fail c "expected ',' or ']'"

let of_string s =
  let c = { s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos < String.length s then fail c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (p, msg) ->
      Error (Printf.sprintf "at offset %d: %s" p msg)

(* ------------------------------------------------------------------ *)
(* accessors *)

let rec assoc key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else assoc key rest

let member key = function Assoc fields -> assoc key fields | _ -> None

let to_float = function Number x -> Some x | _ -> None

(* [int_of_float] wraps outside [-2^62, 2^62): refuse rather than
   answer with another integer *)
let to_int = function
  | Number x when Float.is_integer x && x >= -0x1p62 && x < 0x1p62 ->
      Some (int_of_float x)
  | _ -> None

let to_list = function List l -> Some l | _ -> None
let to_string_value = function String s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
