(* Child processes: the `uload serve` server under load and the
   `uload open` cold opens, plus the run's scratch directory. Every child
   is registered so the watchdog can stop it. *)

external wait4 : int -> int * int = "perfbench_wait4"
external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

(* Seconds on the monotonic clock. *)
let now () = float_of_int (now_ns ()) *. 1e-9

let uload = ref "_build/default/bin/uload.exe"
let live : int list ref = ref []
let live_lock = Mutex.create ()

let register pid =
  Mutex.protect live_lock (fun () -> live := pid :: !live)

let reap pid =
  let r = wait4 pid in
  Mutex.protect live_lock (fun () -> live := List.filter (( <> ) pid) !live);
  r

(* SIGKILL every child, and the process group of any that leads one
   (the open spawner), then wait for each. *)
let kill_all () =
  let pids = Mutex.protect live_lock (fun () -> !live) in
  List.iter
    (fun pid ->
      (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (wait4 pid) with Unix.Unix_error _ -> ())
    pids

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Relative paths throughout: the checkout may sit deep enough that an
   absolute Unix-socket path would exceed the 108-byte limit. *)
let run_dir = Printf.sprintf ".perfbench/run-%d" (Unix.getpid ())
let path name = Filename.concat run_dir name

let rec bytes_under p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc + bytes_under (Filename.concat p e))
        0 (Sys.readdir p)
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let spawn ?(stdout = Unix.stdout) ~log args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let out = if stdout == Unix.stdout then err else stdout in
  let pid =
    Unix.create_process !uload (Array.of_list (!uload :: args)) devnull out err
  in
  Unix.close devnull;
  Unix.close err;
  register pid;
  pid

(* --- The server ------------------------------------------------------ *)

type server = { pid : int; addr : Xserve.Proto.addr; log : string }

let start_server ?(checkpoint_every = 0) ~name snap =
  let sock = path (name ^ ".sock") in
  let log = path (name ^ ".log") in
  (try Sys.remove sock with Sys_error _ -> ());
  let args =
    [ "serve"; "--tenant"; "bench=" ^ snap; "--socket"; sock ]
    @ if checkpoint_every > 0 then
        [ "--checkpoint-every"; string_of_int checkpoint_every ]
      else []
  in
  { pid = spawn ~log args; addr = Xserve.Proto.Unix_sock sock; log }

let connect s =
  match Xserve.Client.connect s.addr with
  | Ok c -> c
  | Error e -> failwith ("connect: " ^ e)

(* Poll until /healthz answers 200; the server binds only after its
   start-up, so a refused connect means "not yet". *)
let wait_healthy ?(timeout = 30.0) s =
  let give_up = now () +. timeout in
  let rec go () =
    let ok =
      match Xserve.Client.connect s.addr with
      | Error _ -> false
      | Ok c ->
          let r = Xserve.Client.health c in
          Xserve.Client.close c;
          (match r with Ok { Xserve.Client.status = 200; _ } -> true | _ -> false)
    in
    if not ok then
      if now () > give_up then failwith ("server did not come up, see " ^ s.log)
      else begin
        Unix.sleepf 0.001;
        go ()
      end
  in
  go ()

(* The peak resident set of a live process in KiB: its VmHWM. The
   rusage that wait4 reports is no substitute: after a spawn, a child's
   ru_maxrss starts from its parent's peak. *)
let vm_hwm_kb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> int_of_string_opt kb
              | [] -> None)
          | _ -> None)
        (String.split_on_char '\n' status)

(* SIGTERM drains the server; a clean drain exits 0. Returns the exit
   code and the server's peak resident set in KiB, read just before the
   drain (0 if it could not be read). *)
let stop_server s =
  let hwm = Option.value (vm_hwm_kb s.pid) ~default:0 in
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (fst (reap s.pid), hwm)

(* --- Cold opens ---------------------------------------------------------
   Opens are spawned by a helper, this executable in [--spawner] mode,
   so that each open child's peak resident set is its own: a spawned
   child's ru_maxrss starts from its parent's peak, and the helper's is
   small. The helper reads one request a line (the log path, then the
   uload arguments, tab-separated), runs the open, and answers one line:
   exit code, peak RSS in KiB, start time, ms to the first answer line,
   and that line. *)

type opened = {
  started : float;
  first_line : string;
  first_ms : float;  (** spawn to the first answer line *)
  status : int;
  maxrss_kb : int;
  stderr : string;
}

let read_file f = In_channel.with_open_bin f In_channel.input_all

let run_open ~log args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = spawn ~stdout:wr ~log args in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let first_line = try input_line ic with End_of_file -> "" in
  let first_ms = (now () -. t0) *. 1000.0 in
  (try ignore (In_channel.input_all ic) with Sys_error _ -> ());
  close_in ic;
  let status, maxrss_kb = reap pid in
  (status, maxrss_kb, t0, first_ms, first_line)

(* The [--spawner] mode. It leads its own process group, so stopping
   the group stops any open it is running. *)
let spawner_main () =
  ignore (Unix.setsid ());
  let rec go () =
    match In_channel.input_line stdin with
    | None -> exit 0
    | Some req ->
        (match String.split_on_char '\t' req with
        | log :: args ->
            let status, rss, t0, ms, line = run_open ~log args in
            Printf.printf "%d\t%d\t%.9f\t%.6f\t%s\n%!" status rss t0 ms line
        | [] -> exit 2);
        go ()
  in
  go ()

let spawner = ref None

let helper () =
  match !spawner with
  | Some h -> h
  | None ->
      let req_rd, req_wr = Unix.pipe ~cloexec:true () in
      let rep_rd, rep_wr = Unix.pipe ~cloexec:true () in
      let exe = Sys.executable_name in
      let pid =
        Unix.create_process exe [| exe; "--spawner"; !uload |] req_rd rep_wr Unix.stderr
      in
      register pid;
      Unix.close req_rd;
      Unix.close rep_wr;
      let h = (pid, Unix.out_channel_of_descr req_wr, Unix.in_channel_of_descr rep_rd) in
      spawner := Some h;
      h

(* Ends the helper: EOF on its requests, then wait for it. *)
let stop_spawner () =
  match !spawner with
  | None -> ()
  | Some (pid, oc, ic) ->
      spawner := None;
      close_out oc;
      close_in ic;
      ignore (reap pid)

let cold_open snap query =
  if String.contains query '\t' || String.contains query '\n' then
    invalid_arg "cold_open: a query with a tab or newline";
  let log = path "open.err" in
  let _, oc, ic = helper () in
  output_string oc (String.concat "\t" [ log; "open"; "--recover"; snap; query ] ^ "\n");
  flush oc;
  let reply = try input_line ic with End_of_file -> failwith "the open spawner died" in
  match String.split_on_char '\t' reply with
  | status :: rss :: t0 :: ms :: line ->
      { started = float_of_string t0;
        first_line = String.concat "\t" line;
        first_ms = float_of_string ms;
        status = int_of_string status;
        maxrss_kb = int_of_string rss;
        stderr = read_file log }
  | _ -> failwith ("bad spawner reply: " ^ reply)
