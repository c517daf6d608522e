(* The traced run: each workload's seeded operation sequence replayed in
   process, single-threaded, with one span around each public layer call.
   Every decomposition is checked against the whole call on the same
   input, and the difference is reported as a residual. A short wire
   phase against a child `uload serve` supplies the serving-layer
   figures (queue time, and the residual left after engine and queue
   time). Per-layer metrics are named [<workload>.<layer metric>] and
   exist only for the workloads where the layer runs. *)

module Engine = Xengine.Engine
module Explain = Xengine.Explain
module Client = Xserve.Client
module Store = Xstorage.Store
module Json = Xobs.Json
module W = Workload

let now = Child.now
let ms t0 = (now () -. t0) *. 1000.0

(* --- Spans ------------------------------------------------------------
   One Xobs.Trace per top-level span, its root tagged with the workload
   and the operation it belongs to; a span opened inside another becomes
   its child. Traces are kept until the run ends. *)

module Trace = Xobs.Trace

let recording = ref true
let cur_wl = ref ""
let cur_op = ref 0
let innermost : (Trace.t * Trace.span) option ref = ref None
let traces : Trace.t list ref = ref []
let n_traces = ref 0

(* [span name f]: [f ()] and its wall time in ms, recorded as a span
   under the innermost open one. With recording off, [f ()] alone. *)
let span name f =
  if not !recording then (f (), 0.0)
  else
    match !innermost with
    | Some (tr, parent) ->
        let sp = ref parent in
        let v =
          Fun.protect
            ~finally:(fun () -> innermost := Some (tr, parent))
            (fun () ->
              Trace.span tr parent name (fun s ->
                  sp := s;
                  innermost := Some (tr, s);
                  f ()))
        in
        (v, Trace.span_ms !sp)
    | None ->
        let tr = Trace.start ~clock:now ~id:!n_traces name in
        incr n_traces;
        Trace.tag (Trace.root tr) "workload" !cur_wl;
        Trace.tag (Trace.root tr) "op" (string_of_int !cur_op);
        let v =
          Fun.protect
            ~finally:(fun () ->
              Trace.finish tr;
              innermost := None;
              traces := tr :: !traces)
            (fun () ->
              innermost := Some (tr, Trace.root tr);
              f ())
        in
        (v, Trace.duration_ms tr)

(* A child span whose duration comes from the callee's own report, not
   from the clock; derived children are laid end to end from the
   parent's start. *)
let derived name dur_ms =
  match !innermost with
  | Some (tr, parent) when !recording ->
      let t0 =
        List.fold_left
          (fun t c -> Float.max t (Trace.end_s c))
          (Trace.start_s parent) (Trace.children parent)
      in
      ignore
        (Trace.add_child tr ~parent ~name ~t0 ~t1:(t0 +. (dur_ms /. 1000.0))
           ~tags:[ ("derived", "true") ])
  | _ -> ()

let self_ms sp =
  List.fold_left (fun t c -> t -. Trace.span_ms c) (Trace.span_ms sp) (Trace.children sp)

let rec iter_spans f sp =
  f sp;
  List.iter (iter_spans f) (Trace.children sp)

let workload_of tr = List.assoc "workload" (Trace.tags (Trace.root tr))

(* One trace per line, every span tagged with its self time. *)
let write_jsonl file =
  let oc = open_out file in
  List.iter
    (fun tr ->
      iter_spans (fun sp -> Trace.tag sp "self_ms" (Printf.sprintf "%.4f" (self_ms sp))) (Trace.root tr);
      output_string oc (Xobs.Export.trace_jsonl tr);
      output_char oc '\n')
    (List.rev !traces);
  close_out oc

(* Span count, and self time per span name and workload, largest first. *)
let self_times () =
  let h = Hashtbl.create 32 and spans = ref 0 in
  List.iter
    (fun tr ->
      let wl = workload_of tr in
      iter_spans
        (fun sp ->
          incr spans;
          let k = (wl, Trace.name sp) in
          let n, t = Option.value (Hashtbl.find_opt h k) ~default:(0, 0.0) in
          Hashtbl.replace h k (n + 1, t +. self_ms sp))
        (Trace.root tr))
    !traces;
  (!spans, List.sort (fun (_, (_, a)) (_, (_, b)) -> Float.compare b a) (List.of_seq (Hashtbl.to_seq h)))

(* --- Measurements ------------------------------------------------------- *)

type acc = {
  samples : (string, Stats.t) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let acc = { samples = Hashtbl.create 64; attempted = 0; failed = 0; errors = [] }

let obs name v =
  if !recording then
  let b =
    match Hashtbl.find_opt acc.samples name with
    | Some b -> b
    | None ->
        let b = Stats.create () in
        Hashtbl.replace acc.samples name b;
        b
  in
  Stats.add b v

let check ok msg =
  acc.attempted <- acc.attempted + 1;
  if not ok then begin
    acc.failed <- acc.failed + 1;
    if List.length acc.errors < 8 then acc.errors <- msg () :: acc.errors
  end

let err e = Xengine.Xerror.to_string e
let ok_or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ err e)
let content d = Xdm.Doc.content d (Xdm.Doc.root d)

let document e =
  match Engine.document e with Some d -> d | None -> failwith "engine holds no document"

let served c q =
  match Client.query c ~tenant:"bench" q with
  | Ok ({ Client.status = 200; _ } as reply) ->
      let queue =
        Option.bind reply.Client.body (fun b -> Option.bind (Json.member "queue_ms" b) Json.to_float)
      in
      Some (Option.value (Client.output reply) ~default:"", Option.value queue ~default:Float.nan)
  | _ -> None

let save_snapshot doc snap = ignore (Engine.save_snapshot (Engine.of_doc doc (E2e.specs doc)) snap)

let server ?checkpoint_every doc name =
  let snap = Child.path (name ^ ".snap") in
  save_snapshot doc snap;
  let s = Child.start_server ?checkpoint_every ~name snap in
  Child.wait_healthy s;
  (s, snap)

let stop s = check (fst (Child.stop_server s) = 0) (fun () -> "server did not drain cleanly")

(* Run wire-phase threads; one that dies on an exception is a failure. *)
let run_threads fs =
  let died = Atomic.make 0 in
  let guard f () = try f () with _ -> Atomic.incr died in
  List.iter Thread.join (List.map (fun f -> Thread.create (guard f) ()) fs);
  check (Atomic.get died = 0) (fun () -> "a wire-phase connection died")

(* --- One XQuery, decomposed ----------------------------------------------
   The body of [Engine.query_string_r], one public call at a time:
   parse, extract, [Engine.query_r] per pattern (plan and execute split
   by its Explain record; base-document [Embed.eval] for patterns with
   no rewriting), then the tagging plan through [Physical.run] and the
   output assembly. *)

type pattern_stats = {
  mutable patterns : int;
  mutable fallbacks : int;
  mutable scanned : int;
  mutable pruned : int;
}

let decompose ?(detail = true) ~wl engine q =
  let obs name v = if detail || Filename.check_suffix name ".rewrite.plan_ms_p50" then obs name v in
  let pstats = { patterns = 0; fallbacks = 0; scanned = 0; pruned = 0 } in
  let (out, parts), total =
    span "query" (fun () ->
        let ast, parse_ms = span "Xquery.Parse.query" (fun () -> Xquery.Parse.query q) in
        let ex, extract_ms = span "Xquery.Extract.extract" (fun () -> Xquery.Extract.extract ast) in
        let pattern_ms = ref 0.0 in
        let bound =
          List.mapi
            (fun i pat ->
              pstats.patterns <- pstats.patterns + 1;
              let c0 = Engine.counters engine in
              let res, q_ms =
                span "Engine.query_r" (fun () ->
                    let res = Engine.query_r engine pat in
                    (match res with
                    | Ok { Engine.explain = e; _ } ->
                        derived "plan" e.Explain.rewrite_ms;
                        derived "execute" e.Explain.exec_ms
                    | Error _ -> ());
                    res)
              in
              let miss = (Engine.counters engine).Engine.misses > c0.Engine.misses in
              pattern_ms := !pattern_ms +. q_ms;
              match res with
              | Ok { Engine.rel; explain = e; _ } ->
                  if miss then obs (wl ^ ".rewrite.plan_ms_p50") e.Explain.rewrite_ms;
                  obs (wl ^ ".physical.exec_ms") e.Explain.exec_ms;
                  pstats.scanned <- pstats.scanned + e.Explain.partitions_scanned;
                  pstats.pruned <- pstats.pruned + e.Explain.partitions_pruned;
                  (Xquery.Translate.scan_name i, rel)
              | Error (Xengine.Xerror.No_rewriting _) ->
                  if miss then obs (wl ^ ".rewrite.plan_ms_p50") q_ms;
                  pstats.fallbacks <- pstats.fallbacks + 1;
                  let rel, e_ms =
                    span "Xam.Embed.eval" (fun () -> Xam.Embed.eval (document engine) pat)
                  in
                  obs (wl ^ ".embed.fallback_ms_p50") e_ms;
                  pattern_ms := !pattern_ms +. e_ms;
                  (Xquery.Translate.scan_name i, rel)
              | Error e -> failwith ("query_r: " ^ err e))
            ex.Xquery.Extract.patterns
        in
        let out, tag_ms =
          span "Physical.run" (fun () ->
              let rel =
                Xalgebra.Physical.run
                  (Xalgebra.Eval.env_of_list bound)
                  (Xquery.Translate.plan ex)
              in
              let buf = Buffer.create 256 in
              List.iter
                (fun tu ->
                  match tu.(0) with
                  | Xalgebra.Rel.A (Xalgebra.Value.Str s) -> Buffer.add_string buf s
                  | Xalgebra.Rel.A v -> Buffer.add_string buf (Xalgebra.Value.to_display v)
                  | Xalgebra.Rel.N _ -> ())
                rel.Xalgebra.Rel.tuples;
              Buffer.contents buf)
        in
        obs (wl ^ ".xquery.parse_ms_p50") parse_ms;
        obs (wl ^ ".xquery.extract_ms_p50") extract_ms;
        obs (wl ^ ".xquery.tag_ms_p50") tag_ms;
        (out, parse_ms +. extract_ms +. !pattern_ms +. tag_ms))
  in
  (out, parts, total, pstats)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* --- query-mix ------------------------------------------------------- *)

let query_mix ~seed ~share =
  let wl = "query-mix" in
  cur_wl := wl;
  let doc = W.corpus seed in
  let pool = W.pool doc seed in
  let z = W.zipf (Array.length pool) in
  let rng = Random.State.make [| seed; 20 |] in
  let seq = Array.init 100_000 (fun _ -> W.draw z rng) in
  (* Wire phase: the sequence's head on two connections, as in the
     end-to-end run; connection k sends the requests i = k mod 2. *)
  let s, snap = server doc "qm" in
  let wire = Array.make (Array.length seq) None in
  let t_end = now () +. (0.3 *. share) in
  let lane k () =
    let c = Child.connect s in
    let i = ref k in
    while now () < t_end do
      let t0 = now () in
      let reply = served c pool.(seq.(!i)).W.q_text in
      wire.(!i) <- Some (ms t0, reply);
      i := !i + 2
    done;
    Client.close c
  in
  run_threads [ lane 0; lane 1 ];
  stop s;
  let n_wire = ref 0 in
  Array.iteri
    (fun i w ->
      match w with
      | Some (_, reply) ->
          n_wire := i + 1;
          let q = pool.(seq.(i)) in
          check (Option.map fst reply = Some q.W.q_oracle) (fun () ->
              "wrong served answer to " ^ q.W.q_text)
      | None -> ())
    wire;
  (* In-process phase: [traced] is decomposed under spans, [whole] runs
     the same sequence through [query_string_r], [bare] repeats the
     decomposition with the recorder off (the span overhead). *)
  let open_engine () = ok_or_fail "open" (Engine.of_snapshot_r snap) in
  let traced = open_engine () and whole = open_engine () and bare = open_engine () in
  let t_traced = ref 0.0 and t_bare = ref 0.0 in
  let patterns = ref 0 and fallbacks = ref 0 and scanned = ref 0 and pruned = ref 0 in
  let t_end = now () +. (0.7 *. share) in
  let i = ref 0 in
  while (!i < !n_wire || now () < t_end) && !i < Array.length seq do
    let q = pool.(seq.(!i)) in
    cur_op := !i;
    let out, parts, total, ps = decompose ~wl traced q.W.q_text in
    t_traced := !t_traced +. total;
    patterns := !patterns + ps.patterns;
    fallbacks := !fallbacks + ps.fallbacks;
    scanned := !scanned + ps.scanned;
    pruned := !pruned + ps.pruned;
    let t0 = now () in
    let w = ok_or_fail "query_string_r" (Engine.query_string_r whole q.W.q_text) in
    let whole_ms = ms t0 in
    recording := false;
    let t0 = now () in
    ignore (decompose ~wl bare q.W.q_text);
    t_bare := !t_bare +. ms t0;
    recording := true;
    check (out = w.Engine.output && out = q.W.q_oracle) (fun () ->
        "decomposed answer differs from query_string_r for " ^ q.W.q_text);
    obs (wl ^ ".xquery.residual_ms_p50") (whole_ms -. parts);
    (match wire.(!i) with
    | Some (lat, Some (served_out, queue)) ->
        check (served_out = out) (fun () -> "served answer differs from the decomposed one");
        obs (wl ^ ".serve.queue_ms_p50") queue;
        obs (wl ^ ".serve.residual_ms_p50") (lat -. queue -. whole_ms)
    | _ -> ());
    incr i
  done;
  let cs = Engine.counters traced in
  [ (wl ^ ".engine.plan_cache_hit_ratio", ratio cs.Engine.hits (cs.Engine.hits + cs.Engine.misses), "ratio");
    (wl ^ ".rewrite.fallback_ratio", ratio !fallbacks !patterns, "ratio");
    (wl ^ ".store.partitions_pruned_ratio", ratio !pruned (!scanned + !pruned), "ratio");
    (wl ^ ".trace.overhead_ratio", (!t_traced -. !t_bare) /. !t_bare, "ratio") ]

(* --- write path, decomposed ----------------------------------------------
   The body of [Engine.apply_batch_r]'s maintenance, one public call at
   a time: the Doc ops, [Summary.build], then [Store.materialize],
   [Store.partitioned] and [Store.spliced] per module of the previous
   catalog. Returns the new catalog, the layer times and the
   kept/rebuilt partition counts. *)

let maintain ~wl ~(prev : Store.catalog) doc ops =
  let doc, doc_ms = span "Xdm.Doc ops" (fun () -> W.apply doc ops) in
  let (summary, phi), sum_ms = span "Xsummary.Summary.build" (fun () -> Xsummary.Summary.build doc) in
  let t0 = now () in
  let modules, kept, rebuilt =
    List.fold_left
      (fun (ms_, k, rb) (p : Store.module_) ->
        let m, _ = span "Store.materialize" (fun () -> Store.materialize doc p.Store.name p.Store.xam) in
        let m, _ = span "Store.partitioned" (fun () -> Store.partitioned ~phi doc m) in
        let (m, (k', r')), _ = span "Store.spliced" (fun () -> Store.spliced ~prev:p m) in
        (m :: ms_, k + k', rb + r'))
      ([], 0, 0) prev.Store.modules
  in
  let catalog = { Store.summary; modules = List.rev modules } in
  let valid, _ = span "Store.validate" (fun () -> Store.validate catalog) in
  if valid <> Ok () then failwith "maintained catalog does not validate";
  let maint_ms = ms t0 in
  obs (wl ^ ".doc.mutate_ms_p50") doc_ms;
  obs (wl ^ ".summary.build_ms_p50") sum_ms;
  obs (wl ^ ".store.maintain_ms_p50") maint_ms;
  (doc, catalog, doc_ms +. sum_ms +. maint_ms, kept, rebuilt)

let metrics_line text name =
  List.find_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ n; v ] when n = name -> float_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' text)

(* --- write-mix ------------------------------------------------------- *)

let write_mix ~seed ~share =
  let wl = "write-mix" in
  cur_wl := wl;
  let tree = W.corpus_tree seed in
  let doc = Xdm.Doc.of_tree ~name:"bib" tree in
  let n0 = Xdm.Doc.size doc in
  let readers = W.reader_queries tree seed in
  (* Wire phase: one writer and one reader connection, as in the
     end-to-end run. *)
  let s, _ = server ~checkpoint_every:W.checkpoint_every doc "wm" in
  let t_end = now () +. (0.3 *. share) in
  let applies = ref [] and reads = ref [] in
  let writer () =
    let c = Child.connect s in
    let count = ref 0 and i = ref 1 in
    while now () < t_end do
      let ops, count' = W.batch ~seed ~n0 ~count:!count !i in
      let queue =
        match Client.apply c ~tenant:"bench" ops with
        | Ok ({ Client.status = 200; _ } as reply) ->
            count := count';
            Some
              (Option.value ~default:Float.nan
                 (Option.bind reply.Client.body (fun b ->
                      Option.bind (Json.member "queue_ms" b) Json.to_float)))
        | _ -> None
      in
      applies := queue :: !applies;
      incr i
    done;
    Client.close c
  in
  let reader () =
    let c = Child.connect s in
    let i = ref 0 in
    while now () < t_end do
      let q = readers.(!i mod Array.length readers) in
      reads := (Option.map fst (served c q.W.q_text) = Some q.W.q_oracle) :: !reads;
      incr i
    done;
    Client.close c
  in
  run_threads [ writer; reader ];
  List.iter
    (fun queue ->
      check (queue <> None) (fun () -> "wire apply failed");
      Option.iter (obs (wl ^ ".serve.queue_ms_p50")) queue)
    !applies;
  List.iter (fun ok -> check ok (fun () -> "wrong served answer under writes")) !reads;
  let checkpoints =
    let c = Child.connect s in
    let text = Client.metrics c in
    Client.close c;
    match text with
    | Ok text -> Option.value (metrics_line text "serve_checkpoints_total") ~default:0.0
    | Error _ -> 0.0
  in
  stop s;
  (* In-process phase: each batch decomposed on the side, then applied
     whole; a checkpoint every K records, a reader query per batch. *)
  let snap = Child.path "wm-inproc.snap" in
  save_snapshot doc snap;
  let engine = ok_or_fail "open" (Engine.of_snapshot_r snap) in
  ignore (ok_or_fail "attach" (Engine.attach_wal_r engine (snap ^ ".wal")));
  let shadow =
    match Xwal.Wal.Writer.open_ ~dir:(Child.path "wm-shadow.wal") ~lsn:0 () with
    | Ok w -> w
    | Error e -> failwith e
  in
  let kept = ref 0 and rebuilt = ref 0 and hits = ref 0 and misses = ref 0 in
  let count = ref 0 and i = ref 1 and t_end = now () +. (0.7 *. share) in
  while now () < t_end do
    cur_op := !i;
    let ops, count' = W.batch ~seed ~n0 ~count:!count !i in
    count := count';
    let prev = Engine.catalog engine in
    let ((doc', parts, k, rb), wal_ms, report, whole_ms), _ =
      span "write" (fun () ->
          let doc', _, parts, k, rb = maintain ~wl ~prev (document engine) ops in
          let appended, wal_ms = span "Xwal.Writer.append_batch" (fun () -> Xwal.Wal.Writer.append_batch shadow ops) in
          if Result.is_error appended then failwith "shadow WAL append failed";
          let report, whole_ms = span "Engine.apply_batch_r" (fun () -> Engine.apply_batch_r engine ops) in
          ((doc', parts, k, rb), wal_ms, ok_or_fail "apply_batch_r" report, whole_ms))
    in
    check
      (content (document engine) = content doc'
      && report.Engine.ap_parts_kept = k && report.Engine.ap_parts_rebuilt = rb
      && Engine.dormant_modules engine = [])
      (fun () -> "decomposed maintenance differs from apply_batch_r");
    kept := !kept + report.Engine.ap_parts_kept;
    rebuilt := !rebuilt + report.Engine.ap_parts_rebuilt;
    obs (wl ^ ".wal.append_ms_p50") wal_ms;
    obs (wl ^ ".engine.apply_ms_p50") whole_ms;
    obs (wl ^ ".engine.apply_residual_ms_p50") (whole_ms -. (parts +. wal_ms));
    if Engine.lsn engine - Engine.snapshot_lsn engine >= W.checkpoint_every then begin
      let res, ck_ms = span "Engine.checkpoint_background_r" (fun () -> Engine.checkpoint_background_r engine snap) in
      ignore (ok_or_fail "checkpoint" res);
      obs (wl ^ ".checkpoint.ms_p50") ck_ms
    end;
    let q = readers.(!i mod Array.length readers) in
    let c0 = Engine.counters engine in
    let out, _, _, _ = decompose ~detail:false ~wl engine q.W.q_text in
    let c1 = Engine.counters engine in
    hits := !hits + c1.Engine.hits - c0.Engine.hits;
    misses := !misses + c1.Engine.misses - c0.Engine.misses;
    check (out = q.W.q_oracle) (fun () -> "wrong reader answer under writes");
    incr i
  done;
  Xwal.Wal.Writer.close shadow;
  Engine.detach_wal engine;
  [ (wl ^ ".store.parts_rebuilt_ratio", ratio !rebuilt (!kept + !rebuilt), "ratio");
    (wl ^ ".engine.plan_cache_hit_ratio", ratio !hits (!hits + !misses), "ratio");
    (wl ^ ".checkpoint.count", checkpoints, "count") ]

(* --- cold-open ------------------------------------------------------- *)

let cold_open ~seed ~share =
  let wl = "cold-open" in
  cur_wl := wl;
  let doc = W.corpus seed in
  let tail, after = W.cold_tail ~seed doc in
  let queries = W.cold_queries after seed in
  let snap = Child.path "co.snap" in
  E2e.cold_store doc tail snap;
  let records =
    match Xwal.Wal.read ~dir:(snap ^ ".wal") with
    | Ok (rs, _) -> List.map (fun (x : Xwal.Wal.record) -> x.Xwal.Wal.op) rs
    | Error e -> failwith e
  in
  let base = ok_or_fail "open" (Engine.of_snapshot_r snap) in
  let i = ref 0 and t_end = now () +. share in
  while now () < t_end do
    cur_op := !i;
    let q = queries.(!i mod Array.length queries) in
    let (out, replayed, recovered, decode_ms, replay_ms, query_ms), _ =
      span "open" (fun () ->
          let e, decode_ms = span "Engine.of_snapshot_r" (fun () -> Engine.of_snapshot_r snap) in
          let e = ok_or_fail "of_snapshot_r" e in
          let n, replay_ms = span "Engine.attach_wal_r" (fun () -> Engine.attach_wal_r e (snap ^ ".wal")) in
          let n = ok_or_fail "attach_wal_r" n in
          Engine.detach_wal e;
          let res, query_ms = span "Engine.query_string_r" (fun () -> Engine.query_string_r e q.W.q_text) in
          ( (ok_or_fail "query_string_r" res).Engine.output,
            n,
            content (document e),
            decode_ms,
            replay_ms,
            query_ms ))
    in
    check (out = q.W.q_oracle && replayed = List.length records) (fun () ->
        "wrong cold answer to " ^ q.W.q_text);
    obs (wl ^ ".snapshot.decode_ms_p50") decode_ms;
    obs (wl ^ ".wal.replay_ms_per_record") (replay_ms /. float_of_int replayed);
    obs (wl ^ ".open.first_query_ms_p50") query_ms;
    (* Replay decomposed: each record through the write-path layers, one
       maintenance pass per record as replay does. *)
    let (shadow, _, parts), _ =
      span "replay (decomposed)" (fun () ->
          List.fold_left
            (fun (doc, prev, acc) op ->
              let doc, catalog, parts, _, _ = maintain ~wl ~prev doc [ op ] in
              (doc, catalog, acc +. parts))
            (document base, Engine.catalog base, 0.0)
            records)
    in
    check (content shadow = recovered) (fun () -> "decomposed replay differs from attach_wal_r");
    obs (wl ^ ".wal.replay_residual_ms_p50") (replay_ms -. parts);
    incr i
  done;
  []

(* Which end-to-end metric each layer metric is expected to move. *)
let moves =
  [ ("serve.queue_ms_p50", "op_p90_ms on query-mix and write-mix");
    ("serve.residual_ms_p50", "op_mean_ms on query-mix");
    ("xquery.parse_ms_p50", "op_mean_ms on query-mix (predicted share under 1%)");
    ("xquery.extract_ms_p50", "op_mean_ms on query-mix (predicted share under 1%)");
    ("xquery.tag_ms_p50", "op_mean_ms on query-mix");
    ("xquery.residual_ms_p50", "op_mean_ms on query-mix");
    ("engine.plan_cache_hit_ratio", "op_p90_ms on query-mix (misses sit in the tail), read_mean_ms on write-mix");
    ("rewrite.plan_ms_p50", "op_p90_ms on query-mix (misses sit in the tail), read_mean_ms on write-mix");
    ("rewrite.fallback_ratio", "op_mean_ms on query-mix");
    ("physical.exec_ms_p50", "op_mean_ms and ops_per_s on query-mix; none on cold-open");
    ("physical.exec_ms_p90", "op_mean_ms and ops_per_s on query-mix; none on cold-open");
    ("store.partitions_pruned_ratio", "physical.exec_ms_p50, so op_mean_ms on query-mix");
    ("embed.fallback_ms_p50", "op_mean_ms on query-mix");
    ("doc.mutate_ms_p50", "op_mean_ms on write-mix and cold-open; not query-mix");
    ("summary.build_ms_p50", "op_mean_ms on write-mix and cold-open; not query-mix");
    ("store.maintain_ms_p50", "op_mean_ms on write-mix and cold-open; not query-mix");
    ("store.parts_rebuilt_ratio", "op_mean_ms on write-mix and cold-open; not query-mix");
    ("wal.append_ms_p50", "op_mean_ms on write-mix only");
    ("wal.replay_ms_per_record", "op_mean_ms on cold-open");
    ("wal.replay_residual_ms_p50", "op_mean_ms on cold-open");
    ("engine.apply_ms_p50", "op_mean_ms on write-mix");
    ("engine.apply_residual_ms_p50", "op_mean_ms on write-mix");
    ("checkpoint.count", "op_p90_ms on write-mix");
    ("checkpoint.ms_p50", "op_p90_ms on write-mix");
    ("snapshot.decode_ms_p50", "op_mean_ms on cold-open, setup_s on every workload");
    ("open.first_query_ms_p50", "op_mean_ms on cold-open");
    ("trace.overhead_ratio", "none: the cost of the spans themselves") ]

let results_dir = ".perfbench/traces"

let run ~seed ~seconds : E2e.result =
  let share = seconds /. 3.0 in
  let qm = query_mix ~seed ~share in
  let wm = write_mix ~seed ~share in
  let ratios = qm @ wm @ cold_open ~seed ~share in
  let percentiles =
    Hashtbl.fold
      (fun name b l ->
        (* a name ending in _p50 is a median; physical.exec_ms gives p50
           and p90; the others (per-record figures) are medians too *)
        let s = Stats.sorted b in
        let unit = if Filename.check_suffix name "_per_record" then "ms/record" else "ms" in
        if Filename.check_suffix name ".physical.exec_ms" then
          [ (name ^ "_p50", Stats.rank s 0.5, unit); (name ^ "_p90", Stats.rank s 0.9, unit) ] @ l
        else (name, Stats.rank s 0.5, unit) :: l)
      acc.samples []
  in
  let metrics = List.sort compare (percentiles @ ratios) in
  Child.mkdir_p results_dir;
  let file = Filename.concat results_dir (Printf.sprintf "spans-seed%d-%d.jsonl" seed (Unix.getpid ())) in
  write_jsonl file;
  let n_spans, selfs = self_times () in
  Printf.printf "spans: %s (%d traces, %d spans)\nself time by layer (ms, calls):\n" file
    !n_traces n_spans;
  List.iter
    (fun ((wl, name), (n, t)) -> Printf.printf "  %-10s %-34s %10.2f %7d\n" wl name t n)
    selfs;
  { E2e.attempted = acc.attempted;
    failed = acc.failed;
    errors = List.rev acc.errors;
    metrics;
    samples =
      Hashtbl.fold (fun name b l -> (name, Stats.count b) :: l) acc.samples []
      |> List.sort compare;
    raw = [] }
