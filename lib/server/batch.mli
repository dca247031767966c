(** Batch execution: a {!Jobfile} job list through the worker {!Pool}.

    Each job runs in complete isolation: its intermediate APT files live
    in a private temporary directory (removed afterwards even on
    failure), its store configuration, fault injection and evaluator
    budgets come from its own jobfile entry, and any failure — grammar
    diagnostics, a typed {!Lg_apt.Apt_error} from a faulted store, a
    blown depth/node budget — is captured in that job's result record
    with the same stable exit code the CLI would have used (40–44 for
    the typed classes), leaving every sibling untouched.

    Telemetry composes with the single-run story: each job records into
    a private tracer that the parent tracer absorbs on completion
    ({!Lg_support.Trace.absorb}), and the pool publishes [server.*]
    metrics into the shared registry. The {e payload} of a result is
    deterministic — timings are kept apart so a pooled run is
    byte-identical to a sequential run over the same jobs
    ({!to_json} with [~timings:false], the default).

    The fault-tolerance layer composes here too: a [deadline] (per-job
    field, or the run default) arms the pool watchdog; a job that
    crashes its worker ({!Pool.Crash}, [Out_of_memory]) or blows its
    deadline fails with a typed {!Server_error} exit (50–52) and
    {!Session.strike}s its tenant's session toward quarantine; an
    optional {!Chaos} injector exercises all of it deterministically.
    Because chaos rolls are keyed by job id/file, the {e surviving}
    jobs of a chaotic run stay byte-identical to a fault-free run. *)

type outcome = {
  o_id : string;
  o_op : string;
  o_file : string;
  o_ok : bool;
  o_exit : int;
      (** 0 success; 1 diagnostics/logic failure; 40–44 the typed APT
          integrity / resource classes ({!Lg_apt.Apt_error.exit_code});
          50–52 the typed serving classes
          ({!Server_error.exit_code}) *)
  o_error : string option;
  o_payload : Lg_support.Json_out.t;  (** deterministic result document *)
  o_seconds : float;
      (** the job's service time as the {!Pool} harness measured it
          ({!Pool.timing}), set by {!run}; 0 outside {!run} and for a
          job the pool failed without a timing (deadline, expired in
          queue). Not part of the payload. *)
  o_incremental : (string * Lg_incremental.Incr.mode) option;
      (** a successful [update]'s session digest and evaluation mode,
          for the serve [update] op's answer. Never emitted by
          {!to_json}: which of a pool's same-doc updates finds cached
          state depends on scheduling. *)
}

type summary = {
  outcomes : outcome list;  (** in jobfile order *)
  n_ok : int;
  n_failed : int;
  workers : int;  (** 0 = sequential: the inline pool, in the calling domain *)
  wall_seconds : float;
}

(** How [update] jobs evaluate (see [docs/INCREMENTAL.md]).
    [inc_threshold] is the churn fraction above which an update falls
    back to full evaluation; [inc_spill] round-trips each document's
    versioned attribute store through the job's APT backend (state in
    the store registry's custody — and under its fault injection). *)
type incremental = { inc_threshold : float; inc_spill : bool }

val default_incremental : incremental
(** threshold 0.5, no spilling. *)

type admission = {
  a_digest : string;  (** the session digest the job is served from *)
  a_label : string;  (** that session's label, e.g. [translator:g.ag] *)
  a_grammar : string option;
      (** a grammar tenant's text as read at admission; [None] for a
          built-in language *)
}
(** A job's tenant, resolved once when the job is admitted: the
    quarantine gate, the session lookup, a supervision strike and the
    serve ledger's charge all use this one record, so a grammar file
    rewritten while the job waits or runs changes none of them. *)

val admit : Jobfile.job -> admission option
(** Read and digest the job's tenant: a built-in language by name, a
    grammar file by its text, a [check] by its input (inline source
    first, else the file). [None] when a grammar file cannot be read. *)

val run_job :
  sessions:Session.cache ->
  ?incremental:incremental ->
  ?admission:admission ->
  Jobfile.job ->
  outcome
(** One job, synchronously, in the calling domain — the unit of work the
    pool executes. Never raises: every failure lands in the outcome.
    With [admission], a grammar tenant (or a check's grammar) is served
    from the admitted text and digest instead of re-reading the file.
    Reads no clock: the outcome's [o_seconds] is 0 here, and {!run}
    fills it from the pool's measurement.
    Without [incremental], [update] jobs still answer correctly but
    evaluate from scratch and keep no per-document state. *)

val rm_rf : string -> unit
(** Remove a file or a directory tree; missing entries and unlink
    failures are ignored. *)

val check_payload : Linguist.Driver.artifact -> Lg_support.Json_out.t
(** A [check] job's result document: pass count, first pass direction,
    diagnostic count and source lines of the compiled grammar. *)

val default_workers : unit -> int
(** [min 4 (recommended_domain_count - 1)], at least 1. *)

val attempt :
  tracer:Lg_support.Trace.t ->
  sessions:Session.cache ->
  ?incremental:incremental ->
  ?chaos:Chaos.t ->
  admission:admission option ->
  started:(unit -> unit) ->
  Jobfile.job ->
  outcome
(** The job thunk every executor runs — {!run}'s per-job body and the
    serve front-end's job ops alike. With [tracer] installed as the
    ambient tracer it runs, in order: the quarantine gate (raises the
    typed {!Server_error.Session_quarantined} when the [admission]'s
    session is quarantined, so a refusal never burns a worker),
    [chaos]'s injection decision ({!Chaos.on_job}) under a [chaos.gate]
    span ([Delay_job]/[Wedge_job] sleep, [Crash_job] raises
    {!Pool.Crash}), then [started ()], then {!run_job} with the
    [admission]. *)

val error_outcome : Jobfile.job -> code:int -> string -> outcome
(** A failed outcome for the job with exit [code] and message: no
    payload, zero seconds. *)

val failure_outcome :
  ?metrics:Lg_support.Metrics.t ->
  sessions:Session.cache ->
  admission:admission option ->
  Jobfile.job ->
  exn ->
  outcome
(** The outcome for a job the {e supervision layer} failed — the
    [Error e] arm of {!Pool.await}, and the serve front-end's
    equivalent. A typed {!Server_error.Error} keeps its exit code and
    rendered message; anything else is exit 1. [Worker_crashed] and
    [Deadline_exceeded] additionally {!Session.strike} the admitted
    tenant session (crossing the quarantine threshold bumps
    [server.quarantined] on [metrics]). *)

val run :
  ?workers:int ->
  ?sessions:Session.cache ->
  ?metrics:Lg_support.Metrics.t ->
  ?tracer:Lg_support.Trace.t ->
  ?incremental:incremental ->
  ?chaos:Chaos.t ->
  ?deadline:float ->
  Jobfile.job list ->
  summary
(** Run the list on a fresh pool of [workers] domains (default
    {!default_workers}), each job through {!attempt}. [0] is the
    sequential baseline: the {!Pool}'s inline mode runs every job on
    the calling domain, one after another, and publishes the same
    [server.*] series a pooled run does (queue wait identically 0), so
    the two are comparable on the metrics axis too. [metrics] and
    [tracer] default to the calling domain's ambient registry and
    tracer. The pool is drained before returning; outcomes keep jobfile
    order.

    [deadline] (seconds) is the default wall-clock budget for jobs that
    don't set their own [j_deadline]; enforced by the pool watchdog, so
    sequential runs ([workers = 0], the inline pool) don't enforce it.
    [chaos] injects deterministic job-level faults ({!Chaos.on_job})
    ahead of each job. A sequential run settles each job before the
    next starts, so a crash's {!Session.strike} lands before the next
    job's quarantine gate. *)

val to_json : ?timings:bool -> summary -> Lg_support.Json_out.t
(** The results document. With [timings:false] (the default) the
    document depends only on the jobs and their outcomes — byte-identical
    across worker counts; [timings:true] adds wall/per-job seconds and
    throughput. *)
