(* The traced replay: a single-thread, in-process pass over a workload's
   job list in its seeded order, calling each layer's public function
   directly so that every call gets a span of its own.

   Spans come from two places and land in one tracer, installed as the
   ambient one: the benchmark's own spans (category "bench") around
   each public call, and the spans the program already emits
   (driver overlays, LALR and scanner table construction, engine
   passes, incremental propagation). A layer's self time is its spans'
   durations minus the part their children cover; the explicit "other"
   remainder is whatever job time the layers' spans leave, so the layer
   self times add up to the replay's job time exactly. *)

module Trace = Lg_support.Trace
module Session = Lg_server.Session
module Jobfile = Lg_server.Jobfile
module Batch = Lg_server.Batch
module Json = Lg_support.Json_out

type ctx = {
  tr : Trace.t;  (** [Trace.null] for the untraced baseline pass *)
  cache : Session.cache;
  tmp : string;  (** APT store directory of the replay's jobs *)
  mutable jobs : int;
  mutable job_seconds : float;
  mutable minor_words : float;  (** allocated outside session steps *)
  mutable session_words : float;
  mutable builds : (float * bool) list;  (** session step: seconds, built? *)
  mutable table_bytes : int list;  (** LALR tables of each build *)
  mutable tree_nodes : int list;
  mutable rules : int;
  mutable moves : int;
  mutable max_slots : int;
  pass_bytes : Buffer.t;  (** bytes moved per pass, every engine run *)
  io : Lg_apt.Io_stats.t;
  mutable updates : int;
  mutable fired : int;
  mutable fired_base : int;  (** from-scratch rules of the updated docs *)
  mutable reused : int;
  mutable fallbacks : int;
  scratch : (string, int) Hashtbl.t;  (** doc -> from-scratch firings *)
}

let create ~traced ~tmp cache =
  {
    tr = (if traced then Trace.create ~clock:Util.now () else Trace.null);
    cache;
    tmp;
    jobs = 0;
    job_seconds = 0.0;
    minor_words = 0.0;
    session_words = 0.0;
    builds = [];
    table_bytes = [];
    tree_nodes = [];
    rules = 0;
    moves = 0;
    max_slots = 0;
    pass_bytes = Buffer.create 256;
    io = Lg_apt.Io_stats.create ();
    updates = 0;
    fired = 0;
    fired_base = 0;
    reused = 0;
    fallbacks = 0;
    scratch = Hashtbl.create 8;
  }

let span ctx name f = Trace.span ctx.tr ~cat:"bench" name f

let with_ambient ctx f =
  let prev = Trace.ambient () in
  Trace.install ctx.tr;
  Fun.protect ~finally:(fun () -> Trace.install prev) f

(* One replayed job: its wall time and allocation are what the layer
   self times and gc.minor_words_per_job divide up. *)
let job ctx f =
  with_ambient ctx @@ fun () ->
  let w0 = Gc.minor_words () and s0 = ctx.session_words in
  let r, dt = Util.timed (fun () -> span ctx "job" f) in
  ctx.jobs <- ctx.jobs + 1;
  ctx.job_seconds <- ctx.job_seconds +. dt;
  ctx.minor_words <-
    ctx.minor_words +. (Gc.minor_words () -. w0) -. (ctx.session_words -. s0);
  r

(* Session warm-up outside any job: its spans feed the session, driver,
   lalr and scanner metrics but not the job-time split. *)
let setup ctx f = with_ambient ctx (fun () -> span ctx "setup" f)

(* The wire codec a served request pays: job → JSON text → job. *)
let codec ctx job =
  span ctx "server" @@ fun () ->
  let text = Json.to_string (Jobfile.job_to_json job) in
  match Jobfile.job_of_json ~index:0 (Json.parse text) with
  | Ok j -> j
  | Error msg -> failwith ("job codec: " ^ msg)

(* The wire codec of a served op that is not a batch job. *)
let wire ctx doc =
  span ctx "server" @@ fun () -> Json.parse (Json.to_string doc)

let translator_of (s : Session.t) =
  match s.Session.s_payload with
  | Session.Translator t -> t
  | Session.Artifact _ -> failwith "session is not a translator"

(* A session lookup, classified as hit or build by the cache's own miss
   counter. Its allocation is kept out of gc.minor_words_per_job: which
   lookups build rides on the cache's eviction order. *)
let session ctx lookup =
  let w0 = Gc.minor_words () in
  let _, misses0 = Session.stats ctx.cache in
  let t0 = Util.now () in
  Trace.begin_span ctx.tr ~cat:"bench" "session";
  let s = Fun.protect ~finally:(fun () -> Trace.end_span ctx.tr ()) lookup in
  let dt = Util.now () -. t0 in
  let built = snd (Session.stats ctx.cache) > misses0 in
  ctx.builds <- (dt, built) :: ctx.builds;
  if built then
    ctx.table_bytes <-
      Lg_lalr.Tables.table_bytes
        (Linguist.Translator.parse_tables (translator_of s))
      :: ctx.table_bytes;
  ctx.session_words <- ctx.session_words +. (Gc.minor_words () -. w0);
  translator_of s

let check ctx ~file source =
  span ctx "driver" @@ fun () ->
  match Linguist.Driver.process ~file source with
  | Ok a -> a.Linguist.Driver.passes.Linguist.Pass_assign.n_passes
  | Error _ -> failwith ("check failed: " ^ file)

let tree ctx translator ~file text =
  span ctx "translator" @@ fun () ->
  let diag = Lg_support.Diag.create () in
  match Linguist.Translator.tree_of_source translator ~file ~diag text with
  | Some t ->
      ctx.tree_nodes <- Lg_apt.Tree.size t :: ctx.tree_nodes;
      t
  | None -> failwith ("input does not parse: " ^ file)

let engine_options ctx store =
  let config = { Lg_apt.Apt_store.default_config with dir = Some ctx.tmp } in
  {
    Linguist.Engine.default_options with
    backend = Lg_apt.Aptfile.backend_of_store_name ~config store;
  }

(* Scan/parse and a full evaluator run: the translate job's work. *)
let translate ctx translator ~store ~file text =
  let t = tree ctx translator ~file text in
  let options = engine_options ctx store in
  let r =
    span ctx "engine" (fun () ->
        Linguist.Engine.run ~options (Linguist.Translator.plan translator) t)
  in
  let st = r.Linguist.Engine.stats in
  ctx.rules <- ctx.rules + st.Linguist.Engine.rules_evaluated;
  ctx.moves <- ctx.moves + st.Linguist.Engine.global_moves;
  ctx.max_slots <- max ctx.max_slots st.Linguist.Engine.max_resident_slots;
  Lg_apt.Io_stats.add ~into:ctx.io st.Linguist.Engine.total_io;
  List.iter
    (fun (p : Linguist.Engine.pass_stats) ->
      Buffer.add_string ctx.pass_bytes
        (Printf.sprintf "%d " (Lg_apt.Io_stats.total_bytes p.Linguist.Engine.ps_io)))
    st.Linguist.Engine.per_pass;
  Buffer.add_char ctx.pass_bytes '|';
  r.Linguist.Engine.outputs

(* Scan/parse and an incremental update against the document's parked
   state — the serve [update] op's work under Batch.default_incremental. *)
let update ctx translator ~digest ~doc text =
  let t = tree ctx translator ~file:doc text in
  let inc = Batch.default_incremental in
  let config =
    { Lg_incremental.Incr.default_config with threshold = inc.Batch.inc_threshold }
  in
  let slot = Session.doc_slot ctx.cache ~digest ~doc in
  let r =
    span ctx "incr" @@ fun () ->
    let r, next =
      Lg_incremental.Incr.update ?state:slot.Session.doc_state config
        ~plan:(Linguist.Translator.plan translator)
        ~engine_options:Linguist.Engine.default_options ~tree:t
    in
    slot.Session.doc_state <- next;
    r
  in
  (match r.Lg_incremental.Incr.mode with
  | Lg_incremental.Incr.Fresh { fired } -> Hashtbl.replace ctx.scratch doc fired
  | Lg_incremental.Incr.Incremental { fired; reused; _ } ->
      ctx.updates <- ctx.updates + 1;
      ctx.fired <- ctx.fired + fired;
      ctx.reused <- ctx.reused + reused;
      ctx.fired_base <-
        ctx.fired_base + Option.value ~default:0 (Hashtbl.find_opt ctx.scratch doc)
  | Lg_incremental.Incr.Fallback _ ->
      ctx.updates <- ctx.updates + 1;
      ctx.fallbacks <- ctx.fallbacks + 1);
  r.Lg_incremental.Incr.outputs

(* The response-encoding step of a batch job: the root outputs rendered
   to text, as Batch renders them into a payload, then the job's
   outcome through Batch.to_json and the JSON printer. Returns the
   rendered outputs. *)
let payload ctx (o : Batch.outcome) outputs =
  span ctx "batch" @@ fun () ->
  let rendered = Util.render outputs in
  ignore
    (Json.to_string
       (Batch.to_json
          { Batch.outcomes = [ o ]; n_ok = 1; n_failed = 0; workers = 0; wall_seconds = 0.0 }));
  rendered

(* ---- reading the trace ---- *)

let layers =
  [ "server"; "session"; "driver"; "lalr"; "scanner"; "translator"; "engine"; "incr"; "batch"; "other" ]

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let layer_of (sp : Trace.span) =
  match (sp.Trace.sp_cat, sp.Trace.sp_name) with
  | "bench", ("job" | "setup") -> "other"
  | "bench", name -> name
  | "session", _ -> "session"
  | ("driver" | "overlay"), _ -> "driver"
  | "tables", name when has_prefix "lalr." name -> "lalr"
  | "tables", name when has_prefix "scanner." name -> "scanner"
  | ("engine" | "pass"), _ -> "engine"
  | "incremental", _ -> "incr"
  | _ -> "other"

(* Self time per layer over the job roots only, "other" last. Spans
   arrive in completion order, children before their parent, so one
   running sum per depth gives each span's child time. *)
let self_times ctx =
  let totals = Hashtbl.create 16 in
  let child = Array.make 256 0.0 in
  let pending = ref [] in
  List.iter
    (fun (sp : Trace.span) ->
      let d = sp.Trace.sp_depth in
      let self = sp.Trace.sp_dur -. child.(d + 1) in
      child.(d + 1) <- 0.0;
      child.(d) <- child.(d) +. sp.Trace.sp_dur;
      pending := (layer_of sp, self) :: !pending;
      if d = 0 then begin
        if sp.Trace.sp_name = "job" then
          List.iter
            (fun (l, s) ->
              Hashtbl.replace totals l
                (s +. Option.value ~default:0.0 (Hashtbl.find_opt totals l)))
            !pending;
        pending := [];
        child.(0) <- 0.0
      end)
    (Trace.spans ctx.tr);
  (* "other" is what the layers' spans leave of the measured job time,
     clock reads outside the root span included *)
  let named = List.filter (fun l -> l <> "other") layers in
  let total l = Option.value ~default:0.0 (Hashtbl.find_opt totals l) in
  List.map (fun l -> (l, total l)) named
  @ [ ("other", ctx.job_seconds -. Util.sum (List.map total named)) ]

let durations ctx pred =
  List.filter_map
    (fun (sp : Trace.span) -> if pred sp then Some sp.Trace.sp_dur else None)
    (Trace.spans ctx.tr)

let named name (sp : Trace.span) = sp.Trace.sp_name = name

(* One of the benchmark's own spans, around a public call. *)
let bench name (sp : Trace.span) = sp.Trace.sp_cat = "bench" && sp.Trace.sp_name = name

(* Mean over calls, in ms; 0 when the layer never ran. *)
let mean_ms xs = Util.ms (Util.mean xs)
let median_ms xs = Util.ms (Util.median xs)

(* The work counters that must repeat for a seed (the check is in
   Workload.traced_replay). *)
type counters = {
  c_rules : int;
  c_pass_bytes : string;
  c_fired : int;
  c_minor_words_per_job : float;
}

let counters ctx =
  {
    c_rules = ctx.rules;
    c_pass_bytes = Digest.to_hex (Digest.string (Buffer.contents ctx.pass_bytes));
    c_fired = ctx.fired;
    c_minor_words_per_job = ctx.minor_words /. float_of_int (max 1 ctx.jobs);
  }

let job_ms ctx = Util.ms ctx.job_seconds /. float_of_int (max 1 ctx.jobs)

(* The per-layer metrics this replay can speak for. [major] is the
   replay's major-collection count. *)
let metrics ctx ~major =
  let m = Util.metric in
  let builds = List.filter_map (fun (t, b) -> if b then Some t else None) ctx.builds in
  let hits = List.filter_map (fun (t, b) -> if b then None else Some t) ctx.builds in
  let overlay name =
    (* per driver.process call, like an artifact's overlay_seconds row *)
    let calls = List.length (durations ctx (named "driver.process")) in
    Util.ms
      (Util.sum
         (durations ctx (fun sp -> sp.Trace.sp_cat = "overlay" && sp.Trace.sp_name = name)))
    /. float_of_int (max 1 calls)
  in
  let n = float_of_int (max 1 ctx.jobs) in
  let io = ctx.io in
  let get = Lg_apt.Io_stats.get in
  [
    m "session.build_ms.p50" "ms" (Util.ms (Util.quantile builds 0.5));
    m "session.build_ms.p90" "ms" (Util.ms (Util.quantile builds 0.9));
    m "session.hit_ms.p50" "ms" (Util.ms (Util.quantile hits 0.5));
    m "driver.process_ms" "ms" (mean_ms (durations ctx (named "driver.process")));
    m "driver.overlay.parse_ms" "ms" (overlay "parse");
    m "driver.overlay.semantic_ms" "ms" (overlay "semantic");
    m "driver.overlay.evaluability_ms" "ms" (overlay "evaluability");
    m "driver.overlay.planning_ms" "ms" (overlay "planning");
    m "lalr.tables_ms" "ms" (mean_ms (durations ctx (named "lalr.build")));
    m "lalr.table_bytes" "bytes"
      (Util.mean (List.map float_of_int ctx.table_bytes));
    m "scanner.tables_ms" "ms" (mean_ms (durations ctx (named "scanner.compile")));
    m "translator.scan_parse_ms" "ms"
      (median_ms (durations ctx (bench "translator")));
    m "translator.tree_nodes" "count"
      (Util.mean (List.map float_of_int ctx.tree_nodes));
    m "engine.run_ms" "ms" (median_ms (durations ctx (named "engine.run")));
    m "engine.linearize_ms" "ms" (median_ms (durations ctx (named "linearize")));
    m "engine.pass_ms" "ms"
      (median_ms (durations ctx (fun sp -> sp.Trace.sp_cat = "pass" && has_prefix "pass " sp.Trace.sp_name)));
    m "engine.rules_evaluated" "count" (float_of_int ctx.rules);
    m "engine.global_moves" "count" (float_of_int ctx.moves);
    m "engine.max_resident_slots" "count" (float_of_int ctx.max_slots);
    m "apt.bytes_moved" "bytes" (float_of_int (Lg_apt.Io_stats.total_bytes io));
    m "apt.pages" "count" (float_of_int (Lg_apt.Io_stats.total_pages io));
    m "apt.pool_hits" "count" (float_of_int (get io.Lg_apt.Io_stats.pool_hits));
    m "apt.pool_misses" "count" (float_of_int (get io.Lg_apt.Io_stats.pool_misses));
    m "incr.update_ms" "ms"
      (median_ms (durations ctx (bench "incr")));
    m "incr.fired" "count" (float_of_int ctx.fired);
    m "incr.reused_nodes" "count" (float_of_int ctx.reused);
    m "incr.fired_frac" "ratio"
      (if ctx.fired_base = 0 then 0.0
       else float_of_int ctx.fired /. float_of_int ctx.fired_base);
    m "incr.fallback_frac" "ratio"
      (if ctx.updates = 0 then 0.0
       else float_of_int ctx.fallbacks /. float_of_int ctx.updates);
    m "batch.payload_ms" "ms"
      (median_ms (durations ctx (bench "batch")));
    m "jobfile.codec_ms" "ms"
      (median_ms (durations ctx (bench "server")));
    m "gc.minor_words_per_job" "words" (ctx.minor_words /. n);
    m "gc.major_collections" "count" (float_of_int major);
    m "replay.job_ms" "ms" (job_ms ctx);
  ]
  @ List.map
      (fun (l, s) -> m (Printf.sprintf "self.%s_ms" l) "ms" (Util.ms s /. n))
      (self_times ctx)
