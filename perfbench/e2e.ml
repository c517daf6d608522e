(* The three workloads end to end, tracing off: closed-loop load over
   Xserve.Client against a child `uload serve`, and repeated child
   `uload open --recover` runs. A run is [windows] equal windows of load
   with a host-speed calibration (Calib) before, between and after them;
   every latency is kept, and every timing is scaled by the run's
   calibration to the reference speed. *)

module Engine = Xengine.Engine
module Client = Xserve.Client
module W = Workload

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  samples : (string * int) list;  (** samples behind each percentile *)
  errors : string list;  (** the first few failures, for the log *)
  raw : (string * float * string) list;  (** the timings before scaling, and the scale *)
}

let now = Child.now
let setup_reps = 21
let warmup_s = 1.0
let windows = 20

(* One closed-loop lane: a connection, its samples and its failures. *)
type lane = {
  lat : Stats.t;  (** ms, stamped with the operation's start *)
  mutable conn : Client.t option;
  mutable attempted : int;
  mutable failed : int;
  mutable errs : string list;
}

let lane () = { lat = Stats.create (); conn = None; attempted = 0; failed = 0; errs = [] }

let fail lane msg =
  lane.failed <- lane.failed + 1;
  if List.length lane.errs < 5 then lane.errs <- msg :: lane.errs

(* Drive requests back to back until [t_end]; samples count from
   [t_start]. [next ()] prepares the next request outside the timed
   region and returns it. The lane keeps its connection between calls;
   a transport error counts as a failure and reconnects. *)
let closed_loop server ~t_start ~t_end lane next =
  let rec go () =
    let op = next () in
    let t0 = now () in
    if t0 < t_end then begin
      lane.attempted <- lane.attempted + 1;
      let conn = match lane.conn with Some conn -> conn | None -> Child.connect server in
      lane.conn <- Some conn;
      (match op conn with
      | Ok () -> if t0 >= t_start then Stats.add ~at:t0 lane.lat ((now () -. t0) *. 1000.0)
      | Error (`Answer msg) -> fail lane msg
      | Error (`Transport msg) ->
          fail lane ("transport: " ^ msg);
          Client.close conn;
          lane.conn <- None);
      go ()
    end
  in
  (* A lane that cannot reach the server stops with a failure recorded. *)
  try go () with e -> fail lane ("lane stopped: " ^ Printexc.to_string e)

let close_lane l =
  Option.iter Client.close l.conn;
  l.conn <- None

(* Each lane's closed loop in its own thread, until [t_end]. *)
let drive server ~t_start ~t_end lanes =
  List.iter Thread.join
    (List.map
       (fun (l, next) ->
         Thread.create (fun () -> closed_loop server ~t_start ~t_end l next) ())
       lanes)

(* The measured windows of a run, and its scale: the reference kernel
   time over the trimmed mean of every kernel time taken in the run. *)
type window = { w0 : float; w1 : float }
type measured = { ws : window list; scale : float }

(* Warm up for [warmup_s], then [windows] windows of [seconds / windows]
   each, calibrating before, between and after them. [load ~t_start
   ~t_end] drives load until [t_end], recording samples from [t_start]. *)
let measured ~seconds load =
  load ~t_start:infinity ~t_end:(now () +. warmup_s);
  let len = seconds /. float_of_int windows in
  let kernel = Stats.create () in
  Calib.measure kernel;
  let ws =
    List.init windows (fun _ ->
        let w0 = now () in
        load ~t_start:w0 ~t_end:(w0 +. len);
        let w1 = now () in
        Calib.measure kernel;
        { w0; w1 })
  in
  { ws; scale = Calib.reference_ms /. Stats.trimmed_mean kernel }

let query_op (q : W.query) c =
  match Client.query c ~tenant:"bench" q.W.q_text with
  | Error e -> Error (`Transport e)
  | Ok ({ Client.status = 200; _ } as r) ->
      if Client.output r = Some q.W.q_oracle then Ok ()
      else Error (`Answer ("wrong answer to " ^ q.W.q_text))
  | Ok { Client.status; raw; _ } ->
      Error (`Answer (Printf.sprintf "status %d: %s" status raw))

let specs doc = Xstorage.Models.path_partitioned (Xsummary.Summary.of_doc doc)

(* Set-up times, and kernel times taken beside them: set-up comes
   before the windows, so it is scaled by a calibration of its own, one
   timed kernel after each set-up. *)
type setup = { times : Stats.t; kernel : Stats.t }

let setup () = { times = Stats.create (); kernel = Stats.create () }

let timed_setup st f =
  let t0 = now () in
  let v = f () in
  Stats.add st.times (now () -. t0);
  Calib.measure ~reps:1 st.kernel;
  v

(* Set-up, [setup_reps] times: catalog build, snapshot save, server
   start until /healthz answers and the first query (which opens the
   tenant) comes back correct. The last server stays up for the run;
   the median is the metric. *)
let server_setup ?checkpoint_every doc (first : W.query) =
  let st = setup () in
  let rec rep i =
    let snap = Child.path (Printf.sprintf "s%d.snap" i) in
    let s, answer =
      timed_setup st (fun () ->
          let engine = Engine.of_doc doc (specs doc) in
          ignore (Engine.save_snapshot engine snap);
          let s = Child.start_server ?checkpoint_every ~name:(Printf.sprintf "srv%d" i) snap in
          Child.wait_healthy s;
          let c = Child.connect s in
          let answer = query_op first c in
          Client.close c;
          (s, answer))
    in
    if answer <> Ok () then failwith "set-up: first served answer is wrong";
    if i = setup_reps then (s, snap, st)
    else begin
      if fst (Child.stop_server s) <> 0 then failwith "set-up: server did not drain cleanly";
      Child.rm_rf snap;
      Child.rm_rf (snap ^ ".wal");
      rep (i + 1)
    end
  in
  rep 1

(* Rate, trimmed mean and p90 of one operation class over its lanes (one
   per connection): the rate is the median over the windows of the
   lanes' summed rates, the latencies come from all samples pooled. The
   centre is a trimmed mean, not a median: operations come in a fast and
   a slow mode ~1.4x apart whose shares drift between runs, and a median
   flips between the modes. Returns the scaled figures and the raw ones. *)
let summarize (rate, mean, p90) m lanes =
  let figures scale =
    let in_w w t = Stats.map t (fun ~at x -> if at >= w.w0 && at < w.w1 then Some x else None) in
    (* a window too short for two operations on a lane has no rate *)
    let rates =
      List.filter
        (fun r -> not (Float.is_nan r))
        (List.map (fun w -> List.fold_left (fun a l -> a +. Stats.rate (in_w w l)) 0.0 lanes) m.ws)
    in
    let lat = Stats.map (Stats.merge lanes) (fun ~at:_ x -> Some (x *. scale)) in
    [ (rate, Stats.median_of rates /. scale, "1/s");
      (mean, Stats.trimmed_mean lat, "ms");
      (p90, Stats.percentile lat 0.9, "ms") ]
  in
  (figures m.scale, figures 1.0)

let op_names = ("ops_per_s", "op_mean_ms", "op_p90_ms")
let read_names = ("reads_per_s", "read_mean_ms", "read_p90_ms")

(* Set-up time and the op and read figures of a run, scaled, then raw
   with the run's scale. *)
let timings m ~setup ~ops ~reads =
  let o, o_raw = summarize op_names m ops and r, r_raw = summarize read_names m reads in
  let setup_s = Stats.median setup.times in
  let setup_scale = Calib.reference_ms /. Stats.trimmed_mean setup.kernel in
  ( (("setup_s", setup_s *. setup_scale, "s") :: o) @ r,
    (("scale", m.scale, "") :: ("setup_scale", setup_scale, "") :: ("setup_s", setup_s, "s") :: o_raw)
    @ r_raw )

let store_ratio ~store_bytes doc =
  ("store_bytes_per_xml_byte", float_of_int store_bytes /. float_of_int (W.xml_bytes doc), "ratio")

let rss_mb kb = ("peak_rss_mb", float_of_int kb /. 1024.0, "MB")

let sum_lanes lanes =
  ( List.fold_left (fun a l -> a + l.attempted) 0 lanes,
    List.fold_left (fun a l -> a + l.failed) 0 lanes,
    List.concat_map (fun l -> List.rev l.errs) lanes )

(* Drains the server (a clean drain exits 0) and reads its peak RSS. *)
let shut_down server =
  let status, rss_kb = Child.stop_server server in
  (rss_kb, if status = 0 then [] else [ "server did not drain cleanly" ])

(* --- query-mix ------------------------------------------------------- *)

let query_mix ~seed ~seconds =
  let doc = W.corpus seed in
  let pool = W.pool doc seed in
  let z = W.zipf (Array.length pool) in
  let server, snap, setup = server_setup doc pool.(0) in
  let lanes =
    List.init 2 (fun i ->
        let rng = Random.State.make [| seed; 10; i |] in
        (lane (), fun () -> query_op pool.(W.draw z rng)))
  in
  let m = measured ~seconds (fun ~t_start ~t_end -> drive server ~t_start ~t_end lanes) in
  let lanes = List.map fst lanes in
  List.iter close_lane lanes;
  let rss_kb, drain_errs = shut_down server in
  let lats = List.map (fun l -> l.lat) lanes in
  let n = Stats.count (Stats.merge lats) in
  let attempted, failed, errors = sum_lanes lanes in
  let timed, raw = timings m ~setup ~ops:lats ~reads:lats in
  { attempted = attempted + 1;
    failed = failed + List.length drain_errs;
    errors = drain_errs @ errors;
    metrics =
      timed
      @ [ rss_mb rss_kb; store_ratio ~store_bytes:(Child.bytes_under snap) doc ];
    samples = [ ("setup", Stats.count setup.times); ("op", n); ("read", n) ];
    raw }

(* --- write-mix ------------------------------------------------------- *)

(* The durability check: reopen snapshot + WAL in process after the
   drain and compare with the reference built from the acknowledged
   batches. Returns the lost-or-extra batch count. A final checkpoint
   then brings the store to rest for its size measurement. *)
let durability ~snap ~reference ~acked_records =
  let all_lost = max 1 (acked_records / W.batch_ops) in
  match Engine.of_snapshot_r snap with
  | Error e -> (all_lost, Some (Xengine.Xerror.to_string e))
  | Ok engine -> (
      match Engine.attach_wal_r engine (snap ^ ".wal") with
      | Error e -> (all_lost, Some (Xengine.Xerror.to_string e))
      | Ok _ ->
          let rested = Engine.checkpoint_r engine snap in
          Engine.detach_wal engine;
          let lsn = Engine.lsn engine in
          let content d = Xdm.Doc.content d (Xdm.Doc.root d) in
          let same =
            match Engine.document engine with
            | Some d -> content d = content reference
            | None -> false
          in
          if same && lsn = acked_records && Result.is_ok rested then (0, None)
          else
            ( max 1 (abs (lsn - acked_records) / W.batch_ops),
              Some
                (Printf.sprintf "recovered lsn %d vs %d acknowledged records%s%s" lsn
                   acked_records
                   (if same then "" else ", document differs")
                   (if Result.is_ok rested then "" else ", final checkpoint failed")) ))

let write_mix ~seed ~seconds =
  let tree = W.corpus_tree seed in
  let doc = Xdm.Doc.of_tree ~name:"bib" tree in
  let n0 = Xdm.Doc.size doc in
  let readers = W.reader_queries tree seed in
  let server, snap, setup = server_setup ~checkpoint_every:W.checkpoint_every doc readers.(0) in
  let wl = lane () and rl = lane () in
  (* Batches are generated against the writer-book count; the reference
     document is rebuilt from the acknowledged ones after the run. *)
  let count = ref 0 and acked = ref [] and next = ref 1 in
  let writer () =
    let ops, count' = W.batch ~seed ~n0 ~count:!count !next in
    incr next;
    fun c ->
      match Client.apply c ~tenant:"bench" ops with
      | Error e -> Error (`Transport e)
      | Ok { Client.status = 200; _ } ->
          count := count';
          acked := ops :: !acked;
          Ok ()
      | Ok { Client.status; raw; _ } -> Error (`Answer (Printf.sprintf "apply %d: %s" status raw))
  in
  (* The reader cycles its queries back to back, like the writer. *)
  let turn = ref 0 in
  let reader () =
    incr turn;
    query_op readers.(!turn mod Array.length readers)
  in
  let m =
    measured ~seconds (fun ~t_start ~t_end ->
        drive server ~t_start ~t_end [ (wl, writer); (rl, reader) ])
  in
  close_lane wl;
  close_lane rl;
  let rss_kb, drain_errs = shut_down server in
  let reference = W.after_batches ~n0 tree (List.rev !acked) in
  let lost, why =
    durability ~snap ~reference ~acked_records:(W.batch_ops * List.length !acked)
  in
  let attempted, failed, errors = sum_lanes [ wl; rl ] in
  let store_bytes = Child.bytes_under snap + Child.bytes_under (snap ^ ".wal") in
  let timed, raw = timings m ~setup ~ops:[ wl.lat ] ~reads:[ rl.lat ] in
  { attempted = attempted + 1 + List.length !acked;
    failed = failed + lost + List.length drain_errs;
    errors = drain_errs @ Option.to_list why @ errors;
    metrics =
      timed
      @ [ rss_mb rss_kb; store_ratio ~store_bytes reference ];
    samples =
      [ ("setup", Stats.count setup.times); ("op", Stats.count wl.lat); ("read", Stats.count rl.lat) ];
    raw }

(* --- cold-open ------------------------------------------------------- *)

(* Set-up: catalog build, snapshot save and the WAL tail written through
   the engine's own write path (attach + group-committed batches). *)
let cold_store doc tail snap =
  let engine = Engine.of_doc doc (specs doc) in
  ignore (Engine.save_snapshot engine snap);
  let ok = function Ok _ -> () | Error e -> failwith (Xengine.Xerror.to_string e) in
  ok (Engine.attach_wal_r engine (snap ^ ".wal"));
  List.iter (fun ops -> ok (Engine.apply_batch_r engine ops)) tail;
  Engine.detach_wal engine

let cold_open ~seed ~seconds =
  let doc = W.corpus seed in
  let tail, after = W.cold_tail ~seed doc in
  let queries = W.cold_queries after seed in
  let setup = setup () in
  let snap = Child.path "cold.snap" in
  for _ = 1 to setup_reps do
    Child.rm_rf snap;
    Child.rm_rf (snap ^ ".wal");
    timed_setup setup (fun () -> cold_store doc tail snap)
  done;
  let store_bytes () = Child.bytes_under snap + Child.bytes_under (snap ^ ".wal") in
  let bytes0 = store_bytes () in
  let l = lane () and rss = Stats.create () in
  let replayed = Printf.sprintf "recovered: %d record(s) replayed" W.cold_tail_records in
  let i = ref 0 in
  let opens ~t_start ~t_end =
    while now () < t_end do
      let q = queries.(!i mod Array.length queries) in
      incr i;
      let o = Child.cold_open snap q.W.q_text in
      l.attempted <- l.attempted + 1;
      if o.Child.status <> 0 then
        fail l (Printf.sprintf "open exited %d: %s" o.Child.status o.Child.stderr)
      else if o.Child.first_line <> q.W.q_oracle then fail l ("wrong cold answer to " ^ q.W.q_text)
      else if not (String.starts_with ~prefix:replayed o.Child.stderr) then
        fail l ("unexpected replay: " ^ o.Child.stderr)
      else if o.Child.started >= t_start then begin
        Stats.add ~at:o.Child.started l.lat o.Child.first_ms;
        Stats.add rss (float_of_int o.Child.maxrss_kb)
      end
    done
  in
  let m = measured ~seconds opens in
  (* Opens are read-only: the store must come out as it went in. *)
  let bytes1 = store_bytes () in
  if bytes1 <> bytes0 then
    fail l (Printf.sprintf "cold opens changed the store: %d -> %d bytes" bytes0 bytes1);
  let timed, raw = timings m ~setup ~ops:[ l.lat ] ~reads:[ l.lat ] in
  { attempted = l.attempted;
    failed = l.failed;
    errors = List.rev l.errs;
    metrics =
      timed
      @ [ rss_mb (int_of_float (Stats.median rss)); store_ratio ~store_bytes:bytes1 doc ];
    samples = [ ("setup", Stats.count setup.times); ("op", Stats.count l.lat); ("read", Stats.count l.lat) ];
    raw }
