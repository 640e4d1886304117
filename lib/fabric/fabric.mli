(** The distributed campaign fabric: one controller, a fleet of worker
    processes, and a byte-identical merge.

    The fabric is the process-level sibling of
    {!Ferrite_injection.Executor.Parallel}: the same plan → execute → merge
    decomposition, with forked OS processes over socketpairs instead of
    domains over shared memory — and the same scheduler and merge: the
    controller owns a {!Ferrite_injection.Trial_table} (the
    {!Ferrite_injection.Lease} table plus the completed-trial slots),
    exactly as the in-process executor does. The controller builds the plan
    and environment once, booting the kernel once, and keeps the booted
    (and, for a code campaign, profiled) machine as a spare until its first
    {!Controller.step}, then the post-boot snapshot alone; every worker is
    a fork of it and inherits them, with the supervision and tracer config,
    as OCaml values, so only trial-index ranges cross the wire ({!Wire})
    and results come back. A worker forked before that first step takes
    its copy-on-write copy of the spare as its machine; a later one builds
    its machine from the snapshot ({!Ferrite_kernel.Boot.of_snapshot}).
    Either way it counts that machine as its one boot. They self-schedule
    by leasing trial-index chunks under the in-process rule — the next
    pending chunk, or wait, or drained. An idle worker asks once; a request
    that draws a wait stays open, the worker parked, until a leave, a death
    or a hung-worker expiry requeues trials, so a worker that runs dry
    never takes work from another's live lease. Workers may join and
    leave mid-campaign, and are survived by it: a killed worker's
    in-flight chunk is re-leased, and a trial that keeps killing its owners
    is quarantined as {!Ferrite_injection.Outcome.Infrastructure_failure} —
    exactly the in-process supervisor's verdict for a trial that keeps
    failing.

    Every link is a reliable, ordered byte stream, so the protocol
    ({!Wire}) has no acknowledgements or lease ids, nothing is re-sent and
    a live lease is never granted twice. The recovery paths are the ones
    real failures reach: a worker that dies or goes silent past the
    heartbeat deadline, a trial that keeps killing its owners, and a write
    that races a worker's orderly exit.

    {b Determinism.} Trial records are pure functions of trial specs
    ({!Ferrite_injection.Trial}), specs are derived counter-style from the
    campaign config, and the controller merges by trial index. So records,
    traces, collector stats, telemetry counters and the result-store bytes
    are byte-identical to a sequential run under {e any} worker count,
    join/leave schedule, kill schedule or harness-fault seed — only the
    diagnostics ([reboots], [cache], and boots-derived [tl_boots]) depend on
    scheduling, as they already do under the domain-pool executor. *)

module Campaign = Ferrite_injection.Campaign
module Supervisor = Ferrite_injection.Supervisor
module Trial = Ferrite_injection.Trial

type report = {
  fb_workers : int;  (** workers that ever joined *)
  fb_results : int;  (** fresh results merged *)
  fb_dup_results : int;  (** results dropped because their trial was already merged *)
  fb_retransmitted : int;
      (** always 0: links are reliable streams and nothing is re-sent. Kept
          while the benchmark's [fabric.retransmitted] reads it. *)
  fb_steals : int;
      (** always 0: the fabric no longer steals work. Kept while the
          benchmark's [fabric.steals] reads it. *)
  fb_steal_returns : int;
      (** always 0, like [fb_steals]; read by [fabric.steal_returns] *)
  fb_expired : int;
      (** leases reclaimed at the heartbeat deadline, from workers declared
          hung — the fabric's only timeout *)
  fb_worker_deaths : int;  (** links that died without a goodbye (hung included) *)
  fb_hung : int;  (** of those deaths, workers declared hung: alive but silent past the heartbeat deadline *)
  fb_requeued : int;  (** trials re-leased after a death *)
  fb_left : int;  (** orderly mid-campaign departures *)
  fb_missing : int;
      (** trials not merged — 0 on a completed campaign, positive only after
          a drain ({!Controller.request_drain}): the salvage state *)
  fb_quarantined : (int * string) list;
      (** poisoned trials (index, reason) — these are the only records that
          may differ from a sequential run, and they differ the same way an
          in-process quarantine does *)
}
(** Fabric bookkeeping — the only figures fleet churn and harness faults are
    allowed to move. Every convergence test asserts that records stay
    identical while {e only} these counters change. *)

module Worker : sig
  val serve :
    ?die_at:int ->
    ?handle_signals:bool ->
    supervisor:Supervisor.t ->
    tracer:Ferrite_trace.Tracer.config ->
    machines:Trial.machines ->
    Trial.env ->
    Trial.spec array ->
    Unix.file_descr ->
    unit
  (** [serve ~supervisor ~tracer ~machines env specs fd] serves one campaign over a
      controller link, the stream socket [fd]: it leases trial-index ranges,
      runs [specs.(i)] through [supervisor] on a machine taken from
      [machines], and streams results until the
      controller says [Bye]. {!Controller.add_worker} calls it in the forked
      child with the controller's own values. An idle worker sends one
      {!Wire.Lease_request} and waits for its answer.
      Sends a {!Wire.Heartbeat} between trials, and while it waits, so the
      controller can tell a hung worker from a busy one. Unless
      [handle_signals] is [false], SIGTERM/SIGINT mean {e drain}: finish
      and send the in-flight trial, send [Bye] with diagnostics, exit
      cleanly.
      [die_at] is the crash test hook: the process exits without warning
      just before executing that trial index. *)
end

module Controller : sig
  type t

  val create :
    ?supervision:Campaign.supervision ->
    ?tracer:Ferrite_trace.Tracer.config ->
    ?chunk:int ->
    ?max_worker_deaths:int ->
    ?heartbeat_timeout:float ->
    Campaign.config ->
    t
  (** A controller with no workers yet. It builds the campaign's plan,
      inputs ({!Ferrite_injection.Campaign.build_inputs}) and environment
      once, and keeps the inputs' machines, booted spare included, until
      the first {!step} drops the spare
      ({!Ferrite_injection.Trial.drop_spare}): the workers {!add_worker}
      forks inherit them, and {!finish}'s merge takes the hot profile from
      the environment. [supervision] (default
      {!Ferrite_injection.Campaign.default_supervision}) is the one
      {!Ferrite_injection.Campaign.run} takes: its policy and chaos plan
      run every trial in the workers, and its journal is the controller's.
      [chunk] defaults to
      {!Ferrite_injection.Executor.chunk_size} over four workers; a trial
      orphaned by more than [max_worker_deaths] (default 2) deaths is
      quarantined.

      [heartbeat_timeout] (default 30 s; workers heartbeat every 0.25 s
      between trials) is the one deadline: a worker silent for longer is
      declared hung and treated as dead — leases reclaimed, deaths charged,
      trials re-granted — even if its process is still running. Leases
      themselves never expire.

      A [sv_journal] receives every merged entry (results and quarantines)
      as it lands. It is opened by
      {!Ferrite_injection.Campaign.open_journal}, exactly as the in-process
      run opens its own, so either resumes the other's file; with
      [sv_resume] the journal's valid prefix is recovered first and those
      trials are never re-granted. An existing journal without [sv_resume]
      is replaced. *)

  val add_worker : ?die_at:int -> t -> int
  (** Fork a worker process connected over a socketpair ({!Worker.serve});
      returns its worker id. May be called at any time — late joiners are
      how a killed worker is replaced. A worker forked before the first
      {!step} runs its trials on its copy of the controller's warm spare;
      one forked later builds its machine from the snapshot. *)

  val step : t -> timeout:float -> unit
  (** One event-loop turn: drop the spare machine if it is still kept,
      wait up to [timeout] seconds for traffic, absorb
      messages, detect deaths, then declare hung every worker that has sent
      nothing for [heartbeat_timeout] up to the start of the turn. Links are
      read before silence is judged, so a controller that itself stalls past
      the deadline does not condemn a worker whose traffic sat unread. The
      turn ends by granting requeued trials to workers whose request is
      still open. *)

  val finished : t -> bool

  val completed : t -> int
  (** Trials merged (or quarantined) so far — kill tests aim mid-campaign. *)

  val workers_alive : t -> int

  val worker_pid : t -> int -> int option
  (** The OS pid behind a worker id (kill tests aim here). *)

  val request_drain : t -> unit
  (** Ask {!finish} to stop granting work and salvage what is merged — the
      SIGTERM/SIGINT path. Only flips a flag; safe from a signal handler. *)

  val finish :
    ?progress:(done_:int -> total:int -> unit) -> t -> Campaign.result * report
  (** Drive {!step} until every trial is merged, then exchange goodbyes,
      reap the fleet and build the campaign result. [progress] gets the
      merged count after the first turn and after every turn that changes
      it. The result's [records],
      [traces], [dumps], [collector] and [telemetry] counters are
      byte-identical to [Campaign.run cfg] — see the module preamble.
      [supervision] is [None]; fabric bookkeeping lives in the returned
      {!report}. Raises [Failure] if every worker is gone and trials remain
      (the caller controls the fleet, so an empty fleet is its bug, not a
      hang).

      After {!request_drain}, stops waiting instead: workers get [Bye]
      immediately, the straggler window lands in-flight results, and the
      result is the {e salvage state} — the completed subset merged in
      trial-index order, [fb_missing] counting what was left behind. With a
      journal the file is a valid resumable prefix either way. *)
end

val run_campaign :
  ?workers:int ->
  ?supervision:Campaign.supervision ->
  ?tracer:Ferrite_trace.Tracer.config ->
  ?chunk:int ->
  ?max_worker_deaths:int ->
  ?heartbeat_timeout:float ->
  Campaign.config ->
  Campaign.result * report
(** Create a controller, fork [workers] (default 2) workers, run to
    completion. *)
