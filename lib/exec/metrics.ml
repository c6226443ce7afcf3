module Json = Search_numerics.Json

type t = {
  mutex : Mutex.t;
  jobs : int;
  mutable entries : (string * float) list; (* reversed *)
}

let create ~jobs () = { mutex = Mutex.create (); jobs; entries = [] }

let record t ~experiment ~seconds =
  Mutex.protect t.mutex (fun () ->
      t.entries <- (experiment, seconds) :: t.entries)

let time t ~experiment f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      record t ~experiment ~seconds:(Unix.gettimeofday () -. t0))
    f

let entries t = Mutex.protect t.mutex (fun () -> List.rev t.entries)
let total t = List.fold_left (fun acc (_, s) -> acc +. s) 0. (entries t)

let entry_json ~jobs (experiment, seconds) =
  Json.Assoc
    [
      ("experiment", Json.String experiment);
      ("jobs", Json.Number (float_of_int jobs));
      ("seconds", Json.Number seconds);
    ]

let to_json t = Json.List (List.map (entry_json ~jobs:t.jobs) (entries t))

let read_file path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let contents =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Json.of_string contents with
    | Ok (Json.List items) -> Some items
    | Ok _ | Error _ -> None
  end

(* The merge is a read-modify-write cycle: two bench runs writing the
   same timings file concurrently (say --jobs 1 and --jobs 4 in parallel
   CI lanes) would clobber each other's entries.  Serialisation is
   two-level: a module mutex for domains of this process, and a sentinel
   lock file for other processes — [Lockfile] records the holder's PID
   and age and breaks stale locks, so a bench run killed mid-write no
   longer wedges every later run (the old [Unix.lockf] sidecar survived
   kills).  The new contents land via temp-file + rename in the target
   directory, so a reader never observes a torn file. *)
let write_mutex = Mutex.create ()

let write t ~path =
  let ours =
    match to_json t with Json.List items -> items | _ -> assert false
  in
  Mutex.protect write_mutex @@ fun () ->
  Search_resilience.Lockfile.with_lock ~path:(path ^ ".lock") @@ fun () ->
  let kept =
    match read_file path with
    | None -> []
    | Some items ->
        List.filter
          (fun item ->
            match Option.bind (Json.member "jobs" item) Json.to_int with
            | Some j -> not (Int.equal j t.jobs)
            | None -> false)
          items
  in
  let tmp, oc =
    Filename.open_temp_file
      ~temp_dir:(Filename.dirname path)
      ~mode:[ Open_binary ] "bench_timings" ".tmp"
  in
  match
    output_string oc (Json.to_string ~pretty:true (Json.List (kept @ ours)));
    output_char oc '\n';
    close_out oc
  with
  | () -> Sys.rename tmp path
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

(* Trend file: [write] above keeps only the latest run per job count, so
   nothing in the repo showed whether a change made the suite faster or
   slower than last week.  The history file is append-only JSONL — one
   self-contained line per run, never rewritten — so consecutive runs
   stay comparable; a torn tail (a run killed mid-append) leaves at most
   one unparsable final line, which readers skip. *)
let append_history t ~path ~run =
  let line =
    Json.to_string
      (Json.Assoc
         [
           ("run", Json.String run);
           ("unix_time", Json.Number (Float.round (Unix.gettimeofday ())));
           ("jobs", Json.Number (float_of_int t.jobs));
           ("entries", to_json t);
         ])
  in
  Mutex.protect write_mutex @@ fun () ->
  Search_resilience.Lockfile.with_lock ~path:(path ^ ".lock") @@ fun () ->
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc line;
      output_char oc '\n')
