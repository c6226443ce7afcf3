(* The escape analysis family: exception flow, resource-release
   discipline and simulation hygiene, all interprocedural over the
   {!Callgraph}.

   Exception flow ([escape-exn]).  Per def, the may-raise set is the
   least fixpoint of

     raises(d)  ∪  { e ∈ may_raise(callee) | e not caught at the call }

   where [raises d] are the def's own raise sites minus those with an
   unguarded handler lexically in scope, and call sites subtract the
   callee exceptions their own handler context catches (["*"] is a
   catch-all).  The lattice is the powerset of exception-constructor
   names — payload-insensitive, name-level.  A finding fires when a
   *boundary* def — one exported through a public [lib/] [.mli]
   surface, or carrying [[@pool_entry]]/[[@event_loop]] — may raise
   anything outside the sanctioned set: [Search_error.Error] (the one
   structured taxonomy callers are asked to handle) plus
   [Invalid_argument]/[Assert_failure] (the documented fail-fast
   precondition idiom; [Search_error.classify] folds both into the
   taxonomy at every supervision boundary).  The witness is the
   shortest call chain from the boundary to the raise site, rebuilt
   from the [Via] back-pointers {!Flow.fixpoint} leaves behind.

   Release discipline ([escape-leak]).  A def that references an
   acquisition primitive ([Unix.socket]/[openfile]/[accept],
   [open_in*]/[open_out*], [Mutex.lock], [Lockfile.acquire]) must
   either carry the audited [[@releases]] attribute or visibly release
   in the same def: a matching releaser *and* a [Fun.protect]/
   [Mutex.protect] wrapper, so the release runs on raising paths too.
   The dominance check is function-granular by design — the analysis
   does not prove the [~finally] closes that very fd, it enforces the
   *shape* ([with_]-wrapper or audited transfer) every acquisition in
   this tree is expected to take.  Scope: every linted directory — a
   test or bench that leaks a channel or holds a mutex across a raise
   is flagged like library code.

   Simulation hygiene ([escape-realio]).  Everything {!Flow.reach}
   finds from [lib/dst] (the deterministic-simulation bottle) and
   [lib/serve] (the code that must stay portable across the [Runtime]
   ops seam) must not reference real Unix socket/clock/sleep
   primitives.  The reach does not enter [[@real_io]]-audited barriers
   — the production ops record constructors in [runtime.ml] — and
   every other reached reference is flagged with the full call chain.
   References, not just calls, so a real primitive captured as a
   default argument is caught too. *)

module SM = Map.Make (String)

(* ------------------------------------------------------------------ *)
(* exception flow                                                      *)

let sanctioned_escapes =
  [ "Search_error.Error"; "Invalid_argument"; "Assert_failure" ]

type origin =
  | Direct of Location.t  (** raise site in this def *)
  | Via of string * Location.t  (** callee propagating it, call site *)

let caught_by ctx e =
  List.exists
    (fun c ->
      let c = Flow.human c in
      String.equal c "*" || String.equal c e)
    ctx

(* def name -> exception display name -> first (shortest) origin *)
let compute_may (g : Callgraph.t) =
  Flow.fixpoint g
    ~init:(fun d ->
      Some
        (List.fold_left
           (fun m (x : Callgraph.raise_site) ->
             let e = Flow.human x.Callgraph.exn in
             if caught_by x.Callgraph.xcaught e || SM.mem e m then m
             else SM.add e (Direct x.Callgraph.xloc) m)
           SM.empty d.Callgraph.raises))
    ~step:(fun may d ->
      let cur = Option.value (may d.Callgraph.name) ~default:SM.empty in
      let add =
        List.fold_left
          (fun add (h : Callgraph.hcall) ->
            match may h.Callgraph.hname with
            | None -> add
            | Some cm ->
                SM.fold
                  (fun e _ add ->
                    if
                      caught_by h.Callgraph.hcaught e
                      || SM.mem e cur || SM.mem e add
                    then add
                    else
                      SM.add e (Via (h.Callgraph.hname, h.Callgraph.hloc)) add)
                  cm add)
          SM.empty d.Callgraph.hcalls
      in
      if SM.is_empty add then None
      else Some (SM.union (fun _ a _ -> Some a) cur add))

(* Follow the [Via] back-pointers from [n] down to the raise site.
   Returns the chain names (boundary first) and the raising def. *)
let chain_to_raise may n e =
  let rec go n acc fuel =
    if fuel = 0 then None
    else
      match may n with
      | None -> None
      | Some m -> (
          match SM.find_opt e m with
          | None -> None
          | Some (Direct loc) -> Some (List.rev (n :: acc), n, loc)
          | Some (Via (callee, _)) -> go callee (n :: acc) (fuel - 1))
  in
  go n [] 64

let is_boundary ~exports (d : Callgraph.def) =
  if d.Callgraph.pool_entry then Some "[@pool_entry] root"
  else if d.Callgraph.event_loop then Some "[@event_loop] root"
  else if
    String.starts_with ~prefix:"lib/" d.Callgraph.file
    && not (String.ends_with ~suffix:".(init)" d.Callgraph.name)
  then
    let name = d.Callgraph.name in
    let public =
      match String.index_opt name '.' with
      | None -> false
      | Some i -> (
          let unit = String.sub name 0 i in
          let rest = String.sub name (i + 1) (String.length name - i - 1) in
          match Hashtbl.find_opt exports unit with
          | Some set -> List.mem rest set
          | None -> true (* no interface: the whole unit is exported *))
    in
    if public then Some "public" else None
  else None

let exn_findings ~exports may g =
  List.concat_map
    (fun (d : Callgraph.def) ->
      match (is_boundary ~exports d, may d.Callgraph.name) with
      | None, _ | _, None -> []
      | Some ctx, Some m ->
          List.filter_map
            (fun (e, _) ->
              if List.mem e sanctioned_escapes then None
              else
                match chain_to_raise may d.Callgraph.name e with
                | None -> None
                | Some (names, raiser, xloc) ->
                    let file =
                      match Callgraph.find_def g raiser with
                      | Some rd -> rd.Callgraph.file
                      | None -> d.Callgraph.file
                    in
                    let line = xloc.Location.loc_start.Lexing.pos_lnum in
                    let shown =
                      if String.equal e "*" then
                        "a statically unknown exception"
                      else "exception " ^ e
                    in
                    Some
                      (Finding.v ~rule:"escape-exn" ~severity:Finding.Error
                         ~file ~loc:xloc
                         ~suggestion:
                           "raise Search_error.Error (Search_error.raise_ / \
                            invalid) instead, handle it before the boundary, \
                            or audit with a lint.allow entry"
                         (Printf.sprintf
                            "%s escapes %s %s: %s -> <raise %s at %s:%d>"
                            shown ctx d.Callgraph.display
                            (String.concat " -> " (List.map Flow.human names))
                            e file line)))
            (SM.bindings m))
    g.Callgraph.sorted_defs

(* ------------------------------------------------------------------ *)
(* release discipline                                                  *)

let acquirers =
  [
    ("Unix.socket", `Fd); ("Unix.openfile", `Fd); ("Unix.accept", `Fd);
    ("Unix.pipe", `Fd); ("Unix.socketpair", `Fd);
    ("open_in", `Chan); ("open_in_bin", `Chan); ("open_in_gen", `Chan);
    ("open_out", `Chan); ("open_out_bin", `Chan); ("open_out_gen", `Chan);
    ("Mutex.lock", `Lock);
    ("Lockfile.acquire", `Lockfile);
  ]

let chan_closers =
  [ "close_in"; "close_in_noerr"; "close_out"; "close_out_noerr" ]

(* A descriptor wrapped by [in_channel_of_descr]/[out_channel_of_descr]
   is owned by the channel, so the channel closers release the fd too. *)
let releasers = function
  | `Fd -> "Unix.close" :: chan_closers
  | `Chan -> chan_closers
  | `Lock -> [ "Mutex.unlock" ]
  | `Lockfile -> [ "Lockfile.release" ]

let class_name = function
  | `Fd -> "file descriptor"
  | `Chan -> "channel"
  | `Lock -> "mutex"
  | `Lockfile -> "lockfile"

let protect_wrappers = [ "Fun.protect"; "Mutex.protect" ]

let leak_findings (g : Callgraph.t) =
  List.concat_map
    (fun (d : Callgraph.def) ->
      if d.Callgraph.releases then []
      else
        let refs = d.Callgraph.refs in
        let has names =
          List.exists
            (fun (r : Callgraph.reference) ->
              List.mem (Flow.human r.Callgraph.target) names)
            refs
        in
        let protected_ = has protect_wrappers in
        List.filter_map
          (fun (r : Callgraph.reference) ->
            match List.assoc_opt (Flow.human r.Callgraph.target) acquirers with
            | None -> None
            | Some cls ->
                if protected_ && has (releasers cls) then None
                else
                  Some
                    (Finding.v ~rule:"escape-leak" ~severity:Finding.Error
                       ~file:d.Callgraph.file ~loc:r.Callgraph.rloc
                       ~suggestion:
                         "release in Fun.protect ~finally (or a Mutex.protect \
                          body), or audit the wrapper with [@releases]"
                       (Printf.sprintf
                          "%s acquired by %s in %s is not released on raising \
                           paths: no %s under a protect wrapper and no \
                           [@releases] audit"
                          (class_name cls) (Flow.human r.Callgraph.target)
                          d.Callgraph.display
                          (String.concat "/" (releasers cls)))))
          refs)
    g.Callgraph.sorted_defs

(* ------------------------------------------------------------------ *)
(* simulation hygiene                                                  *)

let realio_names =
  [
    "Unix.socket"; "Unix.socketpair"; "Unix.connect"; "Unix.bind";
    "Unix.listen"; "Unix.accept"; "Unix.select"; "Unix.read"; "Unix.write";
    "Unix.write_substring"; "Unix.single_write"; "Unix.recv"; "Unix.send";
    "Unix.close"; "Unix.shutdown"; "Unix.setsockopt"; "Unix.set_nonblock";
    "Unix.sleep"; "Unix.sleepf"; "Thread.delay";
    "Unix.gettimeofday"; "Unix.time"; "Sys.time";
  ]

let sim_dirs = [ "lib/dst/"; "lib/serve/" ]

let sim_root (d : Callgraph.def) =
  List.exists (fun p -> String.starts_with ~prefix:p d.Callgraph.file) sim_dirs
  && not d.Callgraph.real_io

let realio_findings (g : Callgraph.t) =
  (* a def only ever yields the same primitive findings whatever root
     reached it; report each (def, ref) once, from the first root in
     sorted order that reaches it *)
  let reported : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.concat_map
    (fun (root : Callgraph.def) ->
      let order, chain =
        Flow.reach g root ~enter:(fun (d : Callgraph.def) ->
            not d.Callgraph.real_io)
      in
      List.concat_map
        (fun (d : Callgraph.def) ->
          if Hashtbl.mem reported d.Callgraph.name then []
          else begin
            Hashtbl.replace reported d.Callgraph.name ();
            List.filter_map
              (fun (r : Callgraph.reference) ->
                let disp = Flow.human r.Callgraph.target in
                if List.mem disp realio_names then
                  Some
                    (Finding.v ~rule:"escape-realio" ~severity:Finding.Error
                       ~file:d.Callgraph.file ~loc:r.Callgraph.rloc
                       ~suggestion:
                         "route the effect through the Runtime ops record / \
                          the simulated clock, or audit the barrier with \
                          [@real_io]"
                       (Printf.sprintf
                          "real I/O primitive reachable from the simulation \
                           seam: %s -> %s"
                          (chain d) disp))
                else None)
              d.Callgraph.refs
          end)
        order)
    (List.filter sim_root g.Callgraph.sorted_defs)

(* ------------------------------------------------------------------ *)

let findings ~exports (g : Callgraph.t) =
  let export_tbl = Hashtbl.create 64 in
  List.iter
    (fun (unit, values) ->
      if not (Hashtbl.mem export_tbl unit) then
        Hashtbl.add export_tbl unit (List.map fst values))
    exports;
  let may = compute_may g in
  exn_findings ~exports:export_tbl may g
  @ leak_findings g @ realio_findings g
