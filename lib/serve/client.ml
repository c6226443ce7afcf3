module E = Search_numerics.Search_error

type t =
  | Client : {
      fd : 'fd;
      ops : 'fd Runtime.ops;
      path : string;
      decoder : Protocol.Frame.Decoder.t;
      scratch : Bytes.t;
    }
      -> t

let connect ?(runtime = Runtime.default) ~socket_path () =
  match runtime with
  | Runtime.T ops ->
      let fd = ops.Runtime.connect ~path:socket_path in
      Client
        {
          fd;
          ops;
          path = socket_path;
          decoder = Protocol.Frame.Decoder.create ();
          scratch = Bytes.create 65536;
        }

let write_all (Client c) s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match c.ops.Runtime.write_blocking c.fd s ~off ~len:(len - off) with
      | `Err msg ->
          E.raise_ (E.Io_failure { path = c.path; what = "write: " ^ msg })
      | `Wrote n -> go (off + n)
  in
  go 0

let send t ~id req =
  write_all t (Protocol.Frame.encode (Protocol.encode_request ~id req))

let rec recv (Client c as t) =
  match Protocol.Frame.Decoder.next c.decoder with
  | `Frame payload -> (
      match Protocol.decode_response payload with
      | Ok (id, resp) -> (id, resp)
      | Error msg ->
          E.raise_ (E.Invalid_input { where = "Client.recv"; what = msg }))
  | `Corrupt msg ->
      E.raise_ (E.Invalid_input { where = "Client.recv"; what = msg })
  | `Awaiting -> (
      match
        c.ops.Runtime.read_blocking c.fd c.scratch ~off:0
          ~len:(Bytes.length c.scratch)
      with
      | `Err msg ->
          E.raise_ (E.Io_failure { path = c.path; what = "read: " ^ msg })
      | `Eof ->
          E.raise_
            (E.Io_failure
               { path = c.path; what = "unexpected EOF mid-response" })
      | `Data n ->
          Protocol.Frame.Decoder.feed c.decoder c.scratch ~off:0 ~len:n;
          recv t)

let call t ~id req =
  send t ~id req;
  recv t

let close (Client c) = c.ops.Runtime.close c.fd

let with_client ?runtime ~socket_path f =
  let t = connect ?runtime ~socket_path () in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)
