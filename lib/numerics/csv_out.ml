let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let escape_field s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let float_cell = Xfloat.to_string

let write ~path ~header ~rows =
  let arity = List.length header in
  List.iter
    (fun row ->
      if List.length row <> arity then
        invalid_arg "Csv_out.write: row arity mismatch")
    rows;
  let dir = Filename.dirname path in
  if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let emit row =
        output_string oc (String.concat "," (List.map escape_field row));
        output_char oc '\n'
      in
      emit header;
      List.iter emit rows)
