(* The daemon of the traced run: [Server.run] in this process, on the
   real Unix runtime wrapped with timing spans around select, read and
   write.  On SIGTERM it stops, then writes its spans and a summary
   (whose keys are the [runtime.*] totals) next to the socket. *)

module S = Search_serve
module Rt = S.Runtime

type counters = {
  mutable select_s : float;
  mutable read_s : float;
  mutable write_s : float;
  mutable syscalls : int;
  mutable bytes_out : int;
}

let timed spans c name add f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let t1 = Unix.gettimeofday () in
  Spans.add spans ~name ~start:t0 t1;
  add c (t1 -. t0);
  c.syscalls <- c.syscalls + 1;
  v

let wrap spans c (ops : Unix.file_descr Rt.ops) =
  {
    ops with
    Rt.select =
      (fun ~read ~write ~timeout ->
        timed spans c "runtime.select" (fun c d -> c.select_s <- c.select_s +. d)
          (fun () -> ops.Rt.select ~read ~write ~timeout));
    read =
      (fun fd buf ~off ~len ->
        timed spans c "runtime.read" (fun c d -> c.read_s <- c.read_s +. d)
          (fun () -> ops.Rt.read fd buf ~off ~len));
    write =
      (fun fd s ~off ~len ->
        let r =
          timed spans c "runtime.write" (fun c d -> c.write_s <- c.write_s +. d)
            (fun () -> ops.Rt.write fd s ~off ~len)
        in
        (match r with `Wrote n -> c.bytes_out <- c.bytes_out + n | `Again | `Err _ -> ());
        r);
    accept =
      (fun fd ->
        c.syscalls <- c.syscalls + 1;
        ops.Rt.accept fd);
  }

let run ~socket ~jobs ~queue_cap ~batch_cap ~cache_cap ~out =
  let stop = Atomic.make false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop true));
  let spans = Spans.create () in
  let c = { select_s = 0.; read_s = 0.; write_s = 0.; syscalls = 0; bytes_out = 0 } in
  let runtime = Rt.T (wrap spans c Rt.unix) in
  Faulty_search.Pool.with_pool ~jobs @@ fun pool ->
  let dispatch = S.Dispatch.create ~pool ~cache_capacity:cache_cap () in
  let config = S.Server.config ~queue_cap ~batch_cap ~socket_path:socket () in
  S.Server.run ~runtime config ~dispatch ~stop;
  let st = S.Dispatch.stats dispatch in
  Spans.write spans (out ^ ".spans.tsv");
  let oc = open_out out in
  Printf.fprintf oc "%.9f %.9f %.9f %d %d %d\n" c.select_s c.read_s c.write_s c.syscalls
    c.bytes_out st.S.Protocol.served;
  close_out oc

type summary = {
  select_s : float;
  read_s : float;
  write_s : float;
  syscalls : int;
  bytes_out : int;
  served : int;
}

let read_summary path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  Scanf.sscanf (input_line ic) "%f %f %f %d %d %d"
    (fun select_s read_s write_s syscalls bytes_out served ->
      { select_s; read_s; write_s; syscalls; bytes_out; served })
