(** A supervised, fixed-size domain worker pool with a bounded job
    queue, per-job deadlines and a watchdog.

    The batch-evaluation service's execution substrate: [workers]
    domains pull thunks off one queue and run them to completion. The
    queue is {e bounded} — a {!submit} against a full queue is refused
    immediately with the queue's state ({!reject}) instead of blocking,
    which is the backpressure contract the socket front-end ({!Server})
    exposes to clients — and {!drain} stops intake, runs the backlog dry
    and joins every worker, so shutdown never abandons accepted work.

    {b Supervision}: a worker domain that dies under a job — a job
    raising {!Crash} (chaos injection, or code that must take its
    worker down) or [Out_of_memory] — fails that job with a typed
    {!Server_error.Worker_crashed}, spawns its own replacement, and
    publishes [server.worker_restarts]. The pool never loses capacity
    to a dead worker, and a faulted job still poisons only its own
    handle.

    {b Deadlines}: a {!submit} may carry a wall-clock budget measured
    from submission. A watchdog thread (period [watchdog_interval])
    fails over-budget jobs with a typed
    {!Server_error.Deadline_exceeded}, abandons the stuck worker
    (the domain is left to finish its thunk and exit quietly; its
    eventual result loses the first-fill race) and spawns a
    replacement, so a wedged evaluation cannot hold a worker forever.
    A job that expires while still queued is failed on dequeue without
    running. Abandoned and replaced domains are joined by {!drain}.

    {b Inline mode}: a pool of [workers = 0] spawns no domain and no
    watchdog. {!submit} runs the job on the calling domain, through the
    same harness a worker runs it in, so it publishes the same
    [server.*] series (queue wait exactly 0: the job is dequeued the
    instant it is submitted) and classifies a {!Crash} or
    [Out_of_memory] the same way — the job fails [Worker_crashed] and
    counts [server.worker_crashes], but there is no domain to recycle.
    Deadlines are not enforced inline. This is the sequential batch
    baseline ({!Batch.run} [~workers:0]).

    Each worker domain installs the pool's metrics registry as its
    domain-local ambient ({!Lg_support.Metrics.install}), so code deep
    under a job (the APT store stack, the evaluator) publishes into the
    shared registry exactly as it would single-threaded. The pool itself
    publishes under [server.*]: [server.queue_depth] (gauge, current
    backlog), [server.queue_peak] (gauge, high-water mark),
    [server.jobs] / [server.rejections] (counters),
    [server.job_seconds] (histogram of submit-to-completion latency),
    its SLO split [server.queue_wait_seconds] (submit to dequeue) and
    [server.service_seconds] (dequeue to completion) on the
    {!Lg_support.Metrics.latency_buckets} ladder,
    and the supervision counters [server.worker_crashes],
    [server.worker_restarts] and [server.deadline_exceeded]. The
    histograms observe a job only when its harness fills the result; a
    job the watchdog failed first is never observed, and its late
    return counts [server.late_returns] instead.

    Ambient {e tracers} are deliberately not installed here: a trace is
    one well-nested story, so per-job tracers are the callers' business
    ({!Batch} creates one per job and lets the parent
    {!Lg_support.Trace.absorb} it). *)

type t

type 'a handle
(** A pending result. *)

type timing = {
  queue_wait : float;  (** seconds from submit to dequeue *)
  service : float;  (** seconds from dequeue to the job's end *)
}
(** The pool's one measurement of a job: the values its [server.*]
    SLO histograms observed for it. *)

type reject = {
  rj_depth : int;  (** jobs queued when the submit was refused *)
  rj_capacity : int;
}

type lane = Interactive | Bulk
(** The two priority lanes. The queue is really two queues behind one
    shared capacity: a worker coming free always dequeues [Interactive]
    work (serve [job]/[update] traffic) before [Bulk] work (batch
    backlogs), so interactive latency survives a deep bulk backlog.
    Within a lane, FIFO order is preserved. Backpressure ([reject]) is
    computed on the {e combined} depth — saturation is a property of
    the pool, not of a lane. *)

val lane_name : lane -> string
(** ["interactive"] / ["bulk"] — the wire and metric-name spelling. *)

exception Crash of string
(** A job raising this kills its worker domain: the job fails with a
    typed {!Server_error.Worker_crashed} carrying the message, and the
    pool respawns the worker. This is how chaos injection (and any code
    that knows its domain is lost) exercises the supervision path. *)

val create :
  ?metrics:Lg_support.Metrics.t ->
  ?watchdog_interval:float ->
  ?slo_window:float ->
  workers:int ->
  queue_capacity:int ->
  unit ->
  t
(** Spawn [workers] domains and the watchdog thread; [workers <= 0]
    makes an inline pool (no domain, no watchdog — see above).
    [queue_capacity] bounds the number of {e not yet started} jobs (at
    least 1); [watchdog_interval] (default 0.01 s, floor 1 ms) is the
    deadline-scan period and therefore the enforcement granularity;
    [metrics] (default {!Lg_support.Metrics.null}) receives the
    [server.*] series and becomes each worker's ambient registry.
    [slo_window] (default 60 s) is the frame width of the {e windowed}
    latency histograms [server.queue_wait_recent_seconds] /
    [server.service_recent_seconds] — the "current latency" view next
    to the process-lifetime SLO histograms. The pool also publishes the
    per-lane gauges [server.queue_depth_interactive] /
    [server.queue_depth_bulk] and the per-lane wait split
    [server.queue_wait_interactive_seconds] /
    [server.queue_wait_bulk_seconds]. *)

val workers : t -> int
val capacity : t -> int

val submit :
  ?label:string ->
  ?lane:lane ->
  ?deadline:float ->
  t ->
  (unit -> 'a) ->
  ('a handle, reject) result
(** Enqueue a job, or refuse it when the combined queue is at capacity.
    [label] names the job in typed diagnostics; [lane] (default
    [Interactive]) picks the priority lane; [deadline] (seconds,
    measured from this call — queue wait counts) arms the watchdog.
    On an inline pool the job has finished, and its handle is filled,
    by the time [submit] returns; [deadline] is ignored there.
    @raise Invalid_argument on a pool that {!drain} has shut down. *)

val await : 'a handle -> ('a, exn) result
(** Block until the job has a result. [Error e] carries the exception
    the job raised — or the typed {!Server_error.Error} the supervision
    layer failed it with — a faulted job poisons only its own handle,
    never the pool. *)

val is_done : 'a handle -> bool
(** The job has its result: {!await} will not block. *)

val timing : 'a handle -> timing option
(** The job's {!timing}, once it has a result. A handle is filled once
    and the first fill wins: the harness's fill (the job returned,
    raised, or crashed its worker) carries the timing it observed into
    the SLO histograms; a watchdog fill (deadline passed while running)
    or an expired-in-queue fill carries [None], and a wedged job's
    later return changes neither the result nor the timing. [None]
    before the job has a result. *)

val queue_depth : t -> int
(** Jobs accepted but not yet started. *)

val queue_peak : t -> int
(** High-water mark of {!queue_depth} over the pool's lifetime. *)

val live_workers : t -> int
(** Worker slots currently owned by a live domain — [workers] in steady
    state, briefly fewer mid-replacement; always 0 inline. *)

val parked_workers : t -> int
(** Replaced domains (crashed workers' predecessors, watchdog-abandoned
    wedged workers) not yet joined by {!drain} — a persistent nonzero
    count under load is the "my workers keep dying" smell. *)

val restart_count : t -> int
(** Worker replacements so far (crash respawns + watchdog
    abandonments) — the [server.worker_restarts] counter, readable
    without a metrics registry. *)

val drain : t -> unit
(** Stop accepting work, run every queued job, join all workers
    (including replaced and abandoned domains — a wedged thunk must
    terminate for drain to return), stop the watchdog. Idempotent. *)
