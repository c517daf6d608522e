(* The repository benchmark. Usage:

     perfbench --workload query-mix|write-mix|cold-open --seed N
               --seconds S --trace 0|1 [--uload PATH]

   With --trace 0 it runs one workload end to end and reports the
   end-to-end metrics, every timing scaled to a reference host speed
   (calib.ml). With --trace 1 it reports every per-layer metric; those
   are named per workload, so whatever --workload says, it replays all
   three workloads' seeded operation sequences in process, a third of
   --seconds each, with spans around each layer call. The last stdout
   line is the result object {correct, attempted, failed, metrics}; the
   line before it carries the run metadata. See README.md.

   `perfbench --spawner PATH` is the helper that spawns the cold opens
   (child.ml). *)

module Json = Xobs.Json

let workloads = [ "query-mix"; "write-mix"; "cold-open" ]

let usage () =
  prerr_endline
    "usage: perfbench --workload query-mix|write-mix|cold-open --seed N \
     --seconds S --trace 0|1 [--uload PATH]";
  exit 2

let args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: w :: r -> workload := w; go r
    | "--seed" :: n :: r -> seed := int_of_string_opt n; go r
    | "--seconds" :: n :: r -> seconds := float_of_string_opt n; go r
    | "--trace" :: n :: r -> trace := int_of_string_opt n; go r
    | "--uload" :: p :: r -> Child.uload := p; go r
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace
    when List.mem !workload workloads && seconds > 0.0 && (trace = 0 || trace = 1) ->
      (!workload, seed, seconds, trace = 1)
  | _ -> usage ()

(* The first stdout line of a command, [None] if it fails. *)
let command_line prog args =
  match Unix.pipe ~cloexec:true () with
  | exception Unix.Unix_error _ -> None
  | rd, wr -> (
      let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let pid =
        try Some (Unix.create_process prog (Array.of_list (prog :: args)) null wr null)
        with Unix.Unix_error _ -> None
      in
      Unix.close wr;
      Unix.close null;
      let ic = Unix.in_channel_of_descr rd in
      let out = try String.trim (input_line ic) with End_of_file -> "" in
      close_in ic;
      match pid with
      | Some pid -> (
          match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> Some out | _ -> None)
      | None -> None)

(* A benchmark checkout need not be a git repository; fall back
   to a digest of the program's sources so results stay attributable. *)
let source_rev () =
  match
    if Sys.file_exists ".git" then command_line "git" [ "rev-parse"; "HEAD" ] else None
  with
  | Some rev when rev <> "" -> rev
  | _ ->
      let rec files d =
        if Sys.is_directory d then
          List.concat_map (fun e -> files (Filename.concat d e))
            (List.sort compare (Array.to_list (Sys.readdir d)))
        else if Filename.check_suffix d ".ml" || Filename.check_suffix d ".mli" then [ d ]
        else []
      in
      let srcs = List.concat_map (fun d -> if Sys.file_exists d then files d else []) [ "lib"; "bin" ] in
      "src-md5:"
      ^ Digest.to_hex
          (Digest.string (String.concat "" (List.map (fun f -> f ^ Digest.file f) srcs)))

let num f = Json.Num f
let strs l = Json.Arr (List.map (fun s -> Json.Str s) l)

(* A run that cannot finish in time stops its children and exits
   non-zero rather than hang the caller. *)
let watchdog limit =
  ignore
    (Thread.create
       (fun () ->
         Thread.delay limit;
         prerr_endline "perfbench: run exceeded its time limit";
         Child.kill_all ();
         Unix._exit 3)
       ())

let () =
  (match Sys.argv with
  | [| _; "--spawner"; uload |] ->
      Child.uload := uload;
      Child.spawner_main ()
  | _ -> ());
  let workload, seed, seconds, traced = args () in
  (* A server that dies mid-request must show up as a failed request,
     not kill the benchmark with SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Stopped from outside, it stops its children first. *)
  List.iter
    (fun signal ->
      Sys.set_signal signal
        (Sys.Signal_handle
           (fun _ ->
             Child.kill_all ();
             Child.rm_rf Child.run_dir;
             Unix._exit 4)))
    [ Sys.sigterm; Sys.sigint ];
  watchdog 170.0;
  Child.mkdir_p Child.run_dir;
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        (try Child.stop_spawner () with _ -> ());
        Child.kill_all ();
        Child.rm_rf Child.run_dir)
      (fun () ->
        match
          if traced then Traced.run ~seed ~seconds
          else
            match workload with
            | "query-mix" -> E2e.query_mix ~seed ~seconds
            | "write-mix" -> E2e.write_mix ~seed ~seconds
            | _ -> E2e.cold_open ~seed ~seconds
        with
        | r -> Ok r
        | exception Workload.Setup_failed m -> Error ("set-up failed: " ^ m)
        | exception e -> Error (Printexc.to_string e))
  in
  match outcome with
  | Error m ->
      prerr_endline ("perfbench: " ^ m);
      exit 1
  | Ok (r : E2e.result) ->
      List.iter (fun e -> prerr_endline ("perfbench: failure: " ^ e)) r.E2e.errors;
      if List.exists (fun (_, v, _) -> not (Float.is_finite v)) r.E2e.metrics then begin
        prerr_endline "perfbench: a metric has no samples";
        exit 1
      end;
      List.iter
        (fun (n, v, u) -> Printf.printf "%-44s %14.4f %s\n" n v u)
        r.E2e.metrics;
      let meta =
        [ ("workload", Json.Str workload);
          ("seed", num (float_of_int seed));
          ("trace", Json.Bool traced);
          ("run_seconds", num seconds);
          ("rev", Json.Str (source_rev ()));
          ("nproc", num (float_of_int (Domain.recommended_domain_count ())));
          ("ocaml", Json.Str Sys.ocaml_version);
          ("failed_ratio", num (float_of_int r.E2e.failed /. float_of_int (max 1 r.E2e.attempted)));
          ("samples", Json.Obj (List.map (fun (k, n) -> (k, num (float_of_int n))) r.E2e.samples));
          ("failures", strs r.E2e.errors) ]
        @ (if r.E2e.raw = [] then []
           else
             [ ( "unscaled",
                 Json.Obj (List.map (fun (n, v, _) -> (n, num v)) r.E2e.raw) ) ])
        @
        if traced then
          [ ("replayed", strs workloads);
            ("moves", Json.Obj (List.map (fun (m, e) -> (m, Json.Str e)) Traced.moves)) ]
        else []
      in
      print_endline (Json.to_string (Json.Obj [ ("meta", Json.Obj meta) ]));
      print_endline
        (Json.to_string
           (Json.Obj
              [ ("correct", Json.Bool (r.E2e.failed = 0));
                ("attempted", num (float_of_int r.E2e.attempted));
                ("failed", num (float_of_int r.E2e.failed));
                ( "metrics",
                  Json.Obj
                    (List.map
                       (fun (n, v, u) -> (n, Json.Obj [ ("value", num v); ("unit", Json.Str u) ]))
                       r.E2e.metrics) ) ]))
