(** The lease table: which worker owns which trial-index range, what is
    still pending, and which trials keep killing their owners.

    The table is the only code that picks the next trial, for every
    scheduler: the sequential loop, the domain pool ({!Executor}) and the
    distributed fabric's controller. It is the single source of truth for
    campaign progress, and it has one grant policy: a worker that has run
    out of work gets the next pending chunk, or {!Wait}, or {!Drained}. It
    is a plain state machine with no clock and no I/O, so every transition
    the fabric relies on (grant, worker death, poison quarantine) is
    unit-testable without processes. A lease lives until its trials
    complete or its owner leaves or dies: deciding that a silent owner is
    dead is the caller's one deadline (the fabric's heartbeat timeout),
    which ends in {!worker_dead}.

    No transition assumes a trial completes once: completions are
    deduplicated by trial index. Records are pure functions of trial specs,
    so running a trial twice is wasteful but harmless. *)

type decision =
  | Grant of { d_lo : int; d_hi : int }  (** a fresh lease of trials [d_lo, d_hi) *)
  | Wait
      (** nothing pending, but live leases remain: one may yet be requeued
          by a leave or a death *)
  | Drained  (** every trial is complete *)

type completion =
  | Fresh  (** first result for this trial — store it *)
  | Duplicate  (** already complete — drop it *)

type t

val create : total:int -> chunk:int -> max_deaths:int -> t
(** [total] trials, granted [chunk] at a time (see {!Executor.chunk_size});
    a trial orphaned by more than [max_deaths] worker deaths is poisoned.
    Raises [Invalid_argument] on a non-positive [total]/[chunk] or negative
    [max_deaths]. *)

val request : t -> worker:int -> decision
(** Serve a worker's request for work: the next pending chunk, cut short
    before any already-completed trial; otherwise {!Wait} or {!Drained}.
    Every {!Grant} is a new lease, so a worker asks only when it has run
    out of work. *)

val complete : t -> index:int -> completion
(** Record one trial result. {!Fresh} exactly once per index, under any
    delivery schedule; a lease all of whose trials are complete leaves the
    table. Each lease keeps its own incomplete count, so a completion costs
    one pass over the live leases, not over their ranges. Out-of-range indices are {!Duplicate} (a confused peer must not
    grow the table). *)

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

val live_leases : t -> (int * int * int) list
(** [(worker, lo, hi)] for every live lease, oldest first. *)
