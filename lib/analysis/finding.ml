module Json = Search_numerics.Json

type severity = Error | Warning

type t = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  col : int;
  message : string;
  suggestion : string option;
}

let v ~rule ~severity ~file ?suggestion ~loc message =
  let pos = loc.Location.loc_start in
  {
    rule;
    severity;
    file;
    line = pos.Lexing.pos_lnum;
    col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
    message;
    suggestion;
  }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.message b.message

let severity_to_string = function Error -> "error" | Warning -> "warning"

let to_json t =
  Json.Assoc
    ([
       ("rule", Json.String t.rule);
       ("severity", Json.String (severity_to_string t.severity));
       ("file", Json.String t.file);
       ("line", Json.Number (float_of_int t.line));
       ("col", Json.Number (float_of_int t.col));
       ("message", Json.String t.message);
     ]
    @
    match t.suggestion with
    | None -> []
    | Some s -> [ ("suggestion", Json.String s) ])

(* GitHub Actions workflow-command data escaping (the documented
   %-encoding).  One escaper for every renderer that emits ::error /
   ::warning lines, so a finding message with '%' or newlines cannot
   corrupt an annotation in one renderer and survive in another. *)
let github_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string buf "%25"
      | '\r' -> Buffer.add_string buf "%0D"
      | '\n' -> Buffer.add_string buf "%0A"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf
