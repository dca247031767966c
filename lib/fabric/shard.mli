(** Grammar-affinity job placement — the pure planning half of the
    fabric {!Coordinator}, separated out so scheduling policy is
    testable without sockets.

    Jobs with the same affinity key (in practice: the session digest
    their tenant caches under, {!Lg_server.Batch.admit}) are grouped
    so they land on one worker and the grammar compiles once per
    worker. A group bigger than the balanced share
    [ceil (items / workers)] is split — {e spilled} — into share-sized
    chunks so a hot grammar can't serialize the run behind one worker.
    Chunks are then placed longest-first onto the least-loaded worker.

    The plan is deterministic: groups keep first-appearance order,
    equal-sized chunks keep that order, and load ties break toward the
    lowest worker index — the same jobs and worker count always
    produce the same placement. *)

type plan = {
  assignments : int list array;
      (** one entry per worker: the original item indices assigned to
          it, ascending *)
  groups : int;  (** distinct affinity groups (keyless items count 1 each) *)
  spilled : int;
      (** chunks beyond each group's first — how often affinity gave
          way to balance *)
}

val plan : workers:int -> affinity:('a -> string option) -> 'a list -> plan
(** Place [items] onto [max 1 workers] workers. [affinity] answers an
    item's co-location key; [None] means the item has nothing to share
    (a [check] job) and is placed purely by load. Every index appears
    in exactly one assignment list. *)
