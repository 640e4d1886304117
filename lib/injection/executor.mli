(** Campaign executors: the in-process {e execute} half of the
    plan → execute → merge pipeline.

    Both executors run one worker loop — request a grant from the
    {!Lease} table, run the range, complete each trial in the
    {!Trial_table} — on the calling domain ([Sequential]) or on a pool of
    domains sharing the table behind one mutex ([Parallel]). Both produce
    the same {!outcome} — bit-identical records in trial-index order —
    because each trial's record is a pure function of its spec (see
    {!Trial}) and the table merges by index. The only fields allowed to
    differ between executors are the diagnostics [reboots] and [cache]:
    every worker takes one machine, the spare or one built from the
    snapshot (see {!Trial.machines}), and counts it as a boot, so a parallel
    run reports up to [domains - 1] extra boots (and correspondingly
    different cache counters). *)

type t =
  | Sequential  (** one worker, in-order — the default, today's behaviour *)
  | Parallel of { domains : int }
      (** an OCaml 5 [Domain] pool leasing chunks from one table *)

val default : t
(** {!Sequential}. *)

val of_jobs : int -> t
(** [of_jobs n] is the [--jobs N] CLI mapping: {!Sequential} for [n] of 0 or
    1, otherwise [Parallel] with [n] clamped to
    [Domain.recommended_domain_count ()] (extra domains beyond the cores only
    multiply per-worker machines) — which is again {!Sequential} when the clamp
    yields 1. Raises [Invalid_argument] on negative [n]. *)

val auto : unit -> t
(** [of_jobs (Domain.recommended_domain_count ())]. *)

val chunk_size : total:int -> workers:int -> int
(** The lease table's grant size for [workers] workers:
    [max 1 (total / (workers * 8))]. Small enough to rebalance the long tail
    (trial costs vary ~100× between Not-Activated and Hang), large enough to
    amortise lease overhead. The distributed fabric shards with the same
    function by default, so a fabric campaign and a domain-pool campaign cut
    one plan identically. *)

type outcome = Trial_table.outcome
(** Records, traces and dumps in trial-index order; collector stats and
    telemetry folded in that order; [reboots] and [cache] summed over
    workers. Only [reboots] and [cache] (and the boots the campaign derives
    from them) depend on the executor. *)

val run :
  ?progress:(done_:int -> total:int -> unit) ->
  ?trace:Ferrite_trace.Tracer.config ->
  ?supervisor:Supervisor.t ->
  ?journal:Journal.writer ->
  ?recovered:Journal.entry list ->
  t ->
  machines:Trial.machines ->
  Trial.env ->
  Trial.spec array ->
  outcome
(** Execute every trial on machines taken from [machines]: one worker takes
    the spare, and hands it back when its trials are done (not after an
    exception, nor a machine the supervisor invalidated).

    {b Progress ordering guarantee.} [progress] calls are serialized behind a
    mutex, and the completed-trial counter is incremented {e inside} that
    mutex: under every executor the callback observes [done_] = 1, 2, …,
    [total], each exactly once and strictly increasing. With [Parallel] the
    calls come from worker domains (not the calling domain), so the callback
    must not touch domain-local state; [done_] counts completed trials, not
    trial indices.

    [trace] (default {!Ferrite_trace.Tracer.telemetry_only}) sets each
    trial's tracer capacity.

    [supervisor] threads every trial through the supervision layer
    ({!Supervisor.run_trial}): contained failures yield quarantined
    {!Outcome.Infrastructure_failure} records. Without a supervisor any
    exception aborts the run.

    [journal] receives every freshly-run trial as it completes, so a kill
    can only lose the trials in flight. [recovered] (a journal's entries,
    see {!Journal.open_for_append}) complete before any worker starts: they
    are served verbatim, never re-run, each counted as a resume skip on
    [supervisor], and reported to [progress] first. *)
