(** The per-tenant accounting ledger behind the [tenants] serve op: one
    row per session digest ever served, carrying job/success counts,
    failures keyed by typed exit code, and queue-wait/service time
    totals. Thread-safe; charging is cheap enough for the per-job path.

    Unlike every other [server.*] surface the ledger is meant to
    survive a respawn — quota and billing cannot restart from zero
    because a host rolled — so it round-trips through a versioned
    [linguist_tenants:1] JSON snapshot: {!save} writes atomically
    (temp file + rename, so a crash mid-write leaves the previous
    snapshot intact) and {!load} {e merges} rows into the live table
    (counts add), which makes load-at-boot + save-at-drain/shutdown an
    exactly-once accounting cycle. *)

type t

val create : unit -> t

val charge :
  t ->
  digest:string ->
  label:string ->
  ok:bool ->
  exit_code:int ->
  queue_wait:float ->
  service:float ->
  unit
(** Attribute one finished job to [digest]. A non-empty [label] updates
    the row's display label; an empty [digest] is a no-op (jobs with no
    tenant — [check] — are not accounted). Failed jobs bump the
    [exit_code] bucket. [queue_wait]/[service] are the pool's timing
    of the job ({!Pool.timing}), zero when it has none (deadline
    failures). *)

val snapshot :
  t -> (string * string * int * int * (int * int) list * float * float) list
(** [(digest, label, jobs, ok, failures, queue_wait, service)] rows,
    sorted by label; [failures] is [exit code -> count] sorted by
    code. *)

val to_json : t -> Lg_support.Json_out.t
(** The persistent snapshot document. *)

val save : t -> path:string -> (unit, string) result
(** Write the snapshot atomically: a temp file in [path]'s directory,
    then rename over [path]. *)

val load : t -> path:string -> (int, string) result
(** Merge a snapshot's rows into the live table; [Ok n] is the number
    of rows merged. [Error] on unreadable files, non-snapshot JSON or a
    wrong version — the caller decides whether a missing file is fine
    (a first boot) or fatal. *)
