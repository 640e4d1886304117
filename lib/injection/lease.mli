(** The lease table: which worker owns which trial-index range, what is
    still pending, and which trials keep killing their owners.

    The table is the only code that picks the next trial, for every
    scheduler: the sequential loop, the domain pool ({!Executor}) and the
    distributed fabric's controller. It is the single source of truth for
    campaign progress. It is a
    plain state machine over explicit [now] timestamps — no clock reads, no
    I/O — so every transition the fabric relies on (grant, steal, expiry,
    worker death, poison quarantine) is unit-testable without processes.

    {b Idempotency over reliability.} The wire may drop, duplicate or reorder
    any lease/steal/result message, so no transition assumes exactly-once
    delivery: completions are deduplicated by trial index, grants are
    re-issued verbatim to a still-leased worker that asks again (its original
    grant was lost), duplicated steal returns are detected by range and
    ignored, and an expired lease's trials are simply handed to someone else —
    if the slow original owner later delivers them anyway, the duplicate
    results are dropped. Records are pure functions of trial specs, so
    running a trial twice is wasteful but harmless. *)

type decision =
  | Grant of { d_lease : int; d_lo : int; d_hi : int }
      (** fresh lease (or the verbatim re-issue of the asker's live lease) *)
  | Steal_from of { d_victim : int; d_lease : int }
      (** nothing pending — ask [d_victim] to return part of [d_lease] *)
  | Wait  (** nothing pending, nothing worth stealing — ask again later *)
  | Drained  (** every trial is complete *)

type completion =
  | Fresh  (** first result for this trial — store it *)
  | Duplicate  (** retransmission or post-expiry straggler — drop it *)

type t

val create : total:int -> chunk:int -> timeout:float -> max_deaths:int -> t
(** [total] trials, granted [chunk] at a time (see {!Executor.chunk_size});
    a lease untouched for
    [timeout] seconds may be expired; a trial orphaned by more than
    [max_deaths] worker deaths is poisoned. Raises [Invalid_argument] on a
    non-positive [total]/[chunk]/[timeout] or negative [max_deaths]. *)

val request : t -> worker:int -> now:float -> decision
(** Serve a worker's request for work. A worker that still holds a live lease
    gets that lease re-granted verbatim (the original grant was dropped);
    otherwise the next pending chunk, cut short before any already-completed
    trial; otherwise a steal from the live lease
    with the most incomplete trials (at most one outstanding steal per
    lease); otherwise {!Wait} or {!Drained}. *)

val complete : t -> index:int -> completion
(** Record one trial result. {!Fresh} exactly once per index, under any
    delivery schedule; a lease all of whose trials are complete leaves the
    table. Each lease keeps its own incomplete count, so a completion costs
    one pass over the live leases, not over their ranges. Out-of-range indices are {!Duplicate} (a confused peer must not
    grow the table). *)

val steal_return : t -> lease:int -> lo:int -> hi:int -> int
(** The victim returned [lo, hi) of [lease]: shrink the lease, requeue the
    incomplete part, and return how many trials were requeued. Duplicated or
    stale returns (unknown lease, range not the lease's current tail) return
    0 and change nothing. An empty return ([lo = hi]) just clears the
    lease's outstanding-steal flag so it may be asked again. *)

val expire : t -> now:float -> (int * int) list
(** Expire every lease whose deadline passed: requeue its incomplete trials
    and return [(worker, lease)] pairs. Expiry is a liveness backstop, not a
    death verdict — no death counts are charged, and the (possibly just
    slow) owner's later results are still accepted. *)

val touch : t -> worker:int -> now:float -> unit
(** Push the deadlines of [worker]'s leases out to [now + timeout] — called
    on every message from the worker, so only a silent worker expires. *)

val worker_dead : t -> worker:int -> requeued:int list ref -> int list
(** The worker's link died. Its incomplete leased trials are requeued
    (appended to [requeued]) — except trials now orphaned by more than
    [max_deaths] deaths, which are returned as poisoned: the caller must
    quarantine each and then {!complete} it. *)

val worker_leave : t -> worker:int -> int
(** Orderly goodbye: requeue the worker's incomplete leased trials (returns
    how many) without charging deaths. *)

val finished : t -> bool
val completed : t -> int
val pending_trials : t -> int
(** Trials neither complete nor currently leased. *)

val live_leases : t -> (int * int * int * int) list
(** [(lease, worker, lo, hi)] for every live lease, oldest first (tests). *)
