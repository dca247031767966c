(* What every workload shares: the end-to-end metrics of a timed run,
   the traced replay, and the one result line. *)

module Session = Lg_server.Session
module Batch = Lg_server.Batch

(* The end-to-end metrics of a timed run that began at [start], from
   its [jobs] as (completion time, latency) pairs: throughput is the
   completed jobs over the time to the last completion. Call it straight
   after the run: it reads the process's RSS high-water mark, which the
   oracle's work must not raise. *)
let end_to_end ~setups ~start ~jobs =
  let m = Util.metric in
  let n = List.length jobs in
  let last = List.fold_left (fun acc (t, _) -> Float.max acc t) start jobs in
  let latencies = List.map snd jobs in
  [
    m "setup_s" "s" (Util.median setups);
    m "jobs_per_s" "1/s" (if n = 0 then 0.0 else float_of_int n /. (last -. start));
    m "latency_p50_ms" "ms" (Util.ms (Util.quantile latencies 0.5));
    m "latency_p90_ms" "ms" (Util.ms (Util.quantile latencies (Util.tail_quantile n)));
    m "peak_rss_mb" "MB" (Util.peak_rss_mb ());
  ]

(* Every per-layer metric, in report order; a workload that does not
   exercise a layer reports 0 for it. *)
let per_layer =
  [
    ("server.roundtrip_ms.p50", "ms"); ("server.roundtrip_ms.p90", "ms");
    ("server.queue_wait_ms.p50", "ms"); ("server.queue_wait_ms.p90", "ms");
    ("server.service_ms.p50", "ms"); ("server.overhead_ms.mean", "ms");
    ("jobfile.codec_ms", "ms");
    ("session.lookups", "count"); ("session.hits", "count");
    ("session.builds", "count"); ("session.evictions", "count");
    ("session.hit_ratio", "ratio");
    ("session.build_ms.p50", "ms"); ("session.build_ms.p90", "ms");
    ("session.hit_ms.p50", "ms");
    ("driver.process_ms", "ms"); ("driver.overlay.parse_ms", "ms");
    ("driver.overlay.semantic_ms", "ms"); ("driver.overlay.evaluability_ms", "ms");
    ("driver.overlay.planning_ms", "ms");
    ("lalr.tables_ms", "ms"); ("lalr.table_bytes", "bytes");
    ("scanner.tables_ms", "ms");
    ("translator.scan_parse_ms", "ms"); ("translator.tree_nodes", "count");
    ("engine.run_ms", "ms"); ("engine.linearize_ms", "ms"); ("engine.pass_ms", "ms");
    ("engine.rules_evaluated", "count"); ("engine.global_moves", "count");
    ("engine.max_resident_slots", "count");
    ("apt.bytes_moved", "bytes"); ("apt.pages", "count");
    ("apt.pool_hits", "count"); ("apt.pool_misses", "count");
    ("incr.update_ms", "ms"); ("incr.fired", "count"); ("incr.reused_nodes", "count");
    ("incr.fired_frac", "ratio"); ("incr.fallback_frac", "ratio");
    ("batch.run_job_ms", "ms"); ("batch.payload_ms", "ms");
    ("gc.minor_words_per_job", "words"); ("gc.major_collections", "count");
  ]
  @ List.map (fun l -> (Printf.sprintf "self.%s_ms" l, "ms")) Replay.layers
  @ [
      ("replay.job_ms", "ms");
      ("trace.overhead_frac", "ratio");
    ]

(* The traced run's replay, in three kinds of pass over the same jobs:
   - Batch.run_job on each job, the real unit of work: batch.run_job_ms,
     and the outcomes whose encoding the payload step times and whose
     answers the other passes must reproduce;
   - the layer-by-layer replay untraced, the baseline of the tracing
     overhead;
   - the same replay traced: the per-layer numbers come from it.
   The replay passes alternate untraced, traced, untraced, traced, each
   on a freshly compacted heap; the first traced pass is measured
   against the mean of the two untraced ones around it, so a pass's
   position does not bias the overhead, and the work counters must
   repeat exactly in the second traced pass. *)
let traced_replay ~dir ~name ~seed ~cache ~prepare ?incremental ~jobs ~valid ~setup
    ~pass () =
  let tmp = Filename.concat dir "replay" in
  Unix.mkdir tmp 0o755;
  let c = cache () in
  prepare c;
  let runs =
    Array.map
      (fun j -> Util.timed (fun () -> Batch.run_job ~sessions:c ?incremental j))
      jobs
  in
  let outcomes = Array.map fst runs in
  (* the run_job pass is checked against the oracle on its own cache's
     translators (name-table indices are per translator); the replay
     passes, each on a fresh cache fed the same jobs in the same order,
     must then answer exactly as it did *)
  let jobs_ok = Array.for_all Fun.id (Array.mapi (valid c) outcomes) in
  let replay traced =
    Gc.compact ();
    let ctx = Replay.create ~traced ~tmp (cache ()) in
    setup ctx;
    let major0 = (Gc.quick_stat ()).Gc.major_collections in
    let ok = pass outcomes ctx in
    (ctx, (Gc.quick_stat ()).Gc.major_collections - major0, ok)
  in
  let base1, _, ok0 = replay false in
  let traced, major, ok1 = replay true in
  let base2, _, ok2 = replay false in
  let again, _, ok3 = replay true in
  let c1 = Replay.counters traced and c2 = Replay.counters again in
  (* exact for the evaluator's and the incremental layer's counts; the
     allocation count is held to one part in a million, because the
     paged store allocates a few words more or less from one pass to the
     next (4 words in 3.8e8 on hot_translate) *)
  let repeat =
    c1.Replay.c_rules = c2.Replay.c_rules
    && c1.Replay.c_pass_bytes = c2.Replay.c_pass_bytes
    && c1.Replay.c_fired = c2.Replay.c_fired
    && Float.abs (c1.Replay.c_minor_words_per_job -. c2.Replay.c_minor_words_per_job)
       <= 1e-6 *. c1.Replay.c_minor_words_per_job
  in
  Printf.printf
    "%s  counters rules_evaluated=%d apt_bytes_per_pass=%s incr_fired=%d \
     minor_words_per_job=%.1f/%.1f repeat=%b\n"
    name c1.Replay.c_rules c1.Replay.c_pass_bytes c1.Replay.c_fired
    c1.Replay.c_minor_words_per_job c2.Replay.c_minor_words_per_job repeat;
  let selfs = Replay.self_times traced in
  Printf.printf "%s  replay %d jobs: %s = %.3f ms, job time %.3f ms\n" name
    traced.Replay.jobs
    (String.concat " + " (List.map (fun (l, t) -> Printf.sprintf "%s %.3f" l (Util.ms t)) selfs))
    (Util.ms (Util.sum (List.map snd selfs)))
    (Util.ms traced.Replay.job_seconds);
  let traces = Filename.concat Util.work_dir "traces" in
  (try Unix.mkdir traces 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Lg_support.Trace.write_chrome ~process_name:("perfbench " ^ name)
    traced.Replay.tr
    ~path:(Filename.concat traces (Printf.sprintf "%s-seed%d.json" name seed));
  let hits, misses = Session.stats traced.Replay.cache in
  let evictions, _ = Session.eviction_stats traced.Replay.cache in
  let m = Util.metric in
  let metrics =
    Replay.metrics traced ~major
    @ [
        m "batch.run_job_ms" "ms"
          (Util.ms (Util.median (Array.to_list (Array.map snd runs))));
        m "trace.overhead_frac" "ratio"
          ((2.0 *. Replay.job_ms traced /. (Replay.job_ms base1 +. Replay.job_ms base2))
           -. 1.0);
        m "session.lookups" "count" (float_of_int (hits + misses));
        m "session.hits" "count" (float_of_int hits);
        m "session.builds" "count" (float_of_int misses);
        m "session.evictions" "count" (float_of_int evictions);
        m "session.hit_ratio" "ratio"
          (float_of_int hits /. float_of_int (max 1 (hits + misses)));
      ]
  in
  (metrics, jobs_ok && ok0 && ok1 && ok2 && ok3 && repeat)

let report ~trace ~attempted ~failed ~correct ~e2e ~layers ~notes =
  let metrics =
    if not trace then e2e
    else
      (* the first source of a name wins: served-run numbers ahead of
         the replay's *)
      List.map
        (fun (name, unit_) ->
          match List.find_opt (fun x -> x.Util.name = name) layers with
          | Some x -> x
          | None -> Util.metric name unit_ 0.0)
        per_layer
  in
  let notes =
    notes
    @ [
        ("samples", string_of_int attempted);
        ( "failed_frac",
          Printf.sprintf "%.6g ratio"
            (float_of_int failed /. float_of_int (max 1 attempted)) );
      ]
  in
  { Util.correct; attempted; failed; metrics; notes }
