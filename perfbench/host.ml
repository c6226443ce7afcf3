(* Host speed.  The machine a benchmark runs on can change speed by a
   third for minutes at a time when other tenants load its memory
   system, which moves every throughput figure together.  A probe is a
   fixed allocation-heavy loop over the standard library (nothing from
   the repository), run in a child process of its own so that it shares
   no heap with the code under test, and timed on the wall clock.  A run
   probes the host several times between its measured phases; its
   throughput is scaled by [reference] over the median probe rate, which
   states it at a fixed host speed. *)

module M = Map.Make (Int)

(* One unit of fixed work: about 0.3 ms on the reference host. *)
let unit_ () =
  let m = ref M.empty in
  for i = 1 to 600 do
    m := M.add ((i * 7919) land 1023) (float_of_int i, string_of_int i) !m
  done;
  let l = M.fold (fun k (f, s) acc -> (k, f *. 1.5, s ^ "x") :: acc) !m [] in
  List.length (List.sort compare l)

let warmup_units = 20
let units = 60

(* [perfbench host-probe]: the probe itself; prints units per second. *)
let probe_main () =
  let sink = ref 0 in
  for _ = 1 to warmup_units do
    sink := !sink + unit_ ()
  done;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to units do
    sink := !sink + unit_ ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  ignore (Sys.opaque_identity !sink);
  Printf.printf "%.17g\n" (float_of_int units /. dt)

(* Units per second of the probe on the 2-vCPU Xeon guest (2.1 GHz) the
   benchmark was built on, at its typical speed. *)
let reference = 3500.

(* Run one probe and answer its rate. *)
let probe () =
  let r, w = Unix.pipe ~cloexec:true () in
  let ic = Unix.in_channel_of_descr r in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close w) @@ fun () ->
    Unix.create_process Sys.executable_name [| Sys.executable_name; "host-probe" |] Unix.stdin w
      Unix.stderr
  in
  let out = In_channel.input_all ic in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "host probe failed");
  match float_of_string_opt (String.trim out) with
  | Some v when v > 0. -> v
  | _ -> failwith ("host probe printed " ^ out)

(* [v], measured at probe rate [host], stated at the reference speed *)
let scale ~host v = v *. reference /. host
