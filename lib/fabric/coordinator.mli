(** The distributed evaluation coordinator: [linguist coordinate].

    Owns a jobfile and a list of worker endpoints (serve processes,
    usually reached over their [--listen] TCP port) and distributes the
    jobs so the merged result document is {e byte-identical} to
    {!Lg_server.Batch.run} [~workers:0] over the same jobfile
    ([Batch.to_json ~timings:false]) — the fabric adds machines, never
    changes answers.

    How (see [docs/FABRIC.md] for the full story):
    - {b Placement} is {!Shard}'s affinity plan: jobs naming the same
      grammar (same session digest) go to the same worker, so each
      grammar compiles at most once per worker; a hot grammar spills
      into balanced chunks rather than serializing the run.
    - {b Inputs are inlined} ([j_source]) — workers need no corpus
      files. Grammars ship on demand: a worker answering
      [grammar_miss] is sent a [grammar_put] of the content-addressed
      source, then the job retries on that worker.
    - {b Lanes}: [update] jobs dispatch on the interactive lane,
      everything else on bulk, so a worker's own interactive clients
      keep preempting fabric bulk work at its queue.
    - {b Failures}: transport loss marks the worker dead and re-queues
      everything it owed onto the least-loaded survivor; a typed
      serving failure (exit 50–52) re-dispatches to a different worker
      up to [redispatch_limit] times before being accepted as the
      outcome. Every job ends with exactly one outcome; only with the
      whole fleet gone does a job fail with the synthesized
      [worker lost] outcome (exit 51). *)

type worker_report = {
  w_endpoint : string;
  w_assigned : int;  (** jobs ever queued to it (incl. re-queues) *)
  w_completed : int;  (** outcomes it produced *)
  w_grammar_puts : int;  (** grammars shipped to it by the handshake *)
  w_session_builds : int;
      (** the worker's [server.session_builds] counter after the run —
          the builds-once-per-grammar evidence; [-1] if unreachable *)
  w_lost : bool;
}

type report = {
  summary : Lg_server.Batch.summary;
      (** outcomes in jobfile order — [Batch.to_json ~timings:false]
          of this is the byte-identity artifact *)
  workers : worker_report list;
  groups : int;  (** distinct affinity groups *)
  spilled : int;  (** chunks split off oversized groups for balance *)
  redispatched : int;  (** jobs moved between workers (loss + typed) *)
}

val run :
  ?attempts:int ->
  ?redispatch_limit:int ->
  ?log:(string -> unit) ->
  workers:Lg_server.Transport.endpoint list ->
  Lg_server.Jobfile.job list ->
  report
(** Distribute [jobs] over [workers]. [attempts] (default 3) is the
    per-request transport retry budget — exhausting it is what declares
    a worker lost. [redispatch_limit] (default 1) bounds how often one
    job chases typed 50–52 failures across workers. [log] (default
    silent) receives one-line progress/stat messages — the CLI points
    it at stderr, keeping stdout's result document clean. Raises
    [Invalid_argument] on an empty worker list. *)
