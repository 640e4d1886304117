(** Campaign supervision: crash containment, retry with exponential backoff,
    quarantine, resume bookkeeping and chaos drills.

    The paper's >115,000-injection campaigns only completed because the
    NFTAPE harness tolerated its own failures (watchdog-card reboots,
    heartbeat stall detection, lossy UDP collection). This module is the
    controller half of that story for our harness: one unexpected OCaml
    exception or host-deadline overrun inside a trial no longer aborts the
    campaign — the trial is retried from a genuinely fresh boot, and if every
    attempt fails it is quarantined as
    {!Outcome.Infrastructure_failure} and excluded from the paper's
    Table 5/6 percentages.

    One supervisor instance is shared by all executor workers; every mutable
    field sits behind one mutex, so supervision never perturbs the
    Sequential == Parallel byte-identity of non-quarantined trials. *)

(** {2 Retry policy} *)

type policy = {
  sp_max_retries : int;  (** retries after the first attempt (total attempts = 1 + this) *)
  sp_backoff_base : float;  (** seconds before the first retry *)
  sp_backoff_factor : float;  (** multiplier per further retry (>= 1) *)
  sp_backoff_max : float;  (** backoff ceiling, seconds *)
  sp_host_deadline : float option;
      (** wall-clock budget per attempt. Checked after the attempt returns:
          in-simulator hangs are already bounded by the engine's step-budget
          watchdog, so a real wall-clock overrun means the {e host} (not the
          target) stalled — GC pathology, an accidental O(n²), a debugger.
          [None] (the default) disables the check; campaigns stay
          wall-clock-independent and deterministic. *)
}

val default_policy : policy
(** 2 retries; backoff 0.05 s × 4ᵏ capped at 1 s; no host deadline. *)

val instant_policy : policy
(** {!default_policy} with zero backoff — CI drills and tests. *)

val validated_policy : policy -> policy
(** Raises [Invalid_argument] on negative retries/backoff or a non-positive
    deadline. *)

val backoff_seconds : policy -> int -> float
(** [backoff_seconds p k] is the pause before retry [k] (0-based). *)

(** {2 Chaos drills}

    Planted failures at seeded trial indices — the harness proving in CI that
    it survives the chaos it creates. All plans are deterministic, so chaos
    campaigns still produce identical records under every executor. *)

type chaos = {
  ch_raise : (int * int) list;
      (** [(trial, n)]: the first [n] attempts of [trial] raise a planted
          exception ({!always} = every attempt → quarantine) *)
  ch_overrun : (int * int) list;
      (** [(trial, n)]: the first [n] attempts report a host-deadline overrun *)
  ch_outage : (int * int) option;
      (** [\[lo, hi)]: collector outage window — dump loss forced to 100%,
          so every crash inside it lands in Hang/Unknown *)
}

val no_chaos : chaos
val always : int

exception Chaos_fault of string
(** What a planted worker failure raises — deliberately indistinguishable
    from any other unexpected exception to the containment path. *)

val drill_plan : seed:int64 -> injections:int -> chaos
(** The CI drill: one always-raising trial, one raise-once trial, one
    overrun-once trial and a ~20% collector outage window, at seeded
    indices. *)

(** {2 Supervisor} *)

type quarantine = { q_index : int; q_attempts : int; q_reason : string }

type report = {
  sup_retries : int;  (** failed attempts that were retried (all trials) *)
  sup_quarantined : quarantine list;  (** sorted by trial index *)
  sup_resume_skips : int;  (** trials recovered from the journal, not re-run *)
  sup_journal_entries : int;  (** journal entries recovered at start *)
  sup_journal_truncated : int;  (** torn-tail bytes discarded on recovery *)
  sup_events : (Ferrite_trace.Event.stamp * Ferrite_trace.Event.t) list;
      (** the supervision timeline (retries, quarantines, resume skips) —
          kept {e outside} the per-trial traces so that a resumed campaign's
          traces and telemetry stay byte-identical to an uninterrupted run *)
}

val zero_report : report

type t

val create :
  ?policy:policy ->
  ?chaos:chaos ->
  ?journal:Journal.writer ->
  ?recovery:Journal.recovery ->
  unit ->
  t
(** [journal] is the writer {!journal_append} appends to (serialized
    internally); [recovery] sets the journal counters of {!report} and the
    completed set {!lookup} serves. {!Campaign.run} passes only the
    recovery: its trial table appends fresh results and completes the
    recovered ones before any worker starts. *)

val report : t -> report

val lookup : t -> int -> Journal.entry option
(** The journal entry for a trial completed by a previous run, if any. *)

val note_skip : t -> int -> unit
(** Count a resume skip: the executor served the trial from the journal. *)

val journal_append : t -> Journal.entry -> unit
(** Append one completed trial to the journal (no-op without one). *)

val quarantine_entry :
  trace:Ferrite_trace.Tracer.config ->
  model:Fault_model.t ->
  Trial.spec ->
  string list ->
  Outcome.record * Collector.stats * Ferrite_trace.Tracer.trial * Crash_dump.t option
(** Synthesize the quarantined result for a trial whose listed attempts all
    failed (reasons in attempt order; must be non-empty): an
    {!Outcome.Infrastructure_failure} record, a zero collector tally, and a
    trace carrying the failed attempts. Pure — no supervisor bookkeeping —
    so the distributed controller can quarantine a trial that keeps killing
    worker processes with exactly the in-process record shape. Raises
    [Invalid_argument] on an empty reason list. *)

val run_trial :
  t ->
  trace:Ferrite_trace.Tracer.config ->
  Trial.env ->
  Trial.cache ->
  Trial.spec ->
  Outcome.record * Collector.stats * Ferrite_trace.Tracer.trial * Crash_dump.t option
(** {!Trial.run} wrapped in containment: chaos is applied, unexpected
    exceptions and deadline overruns invalidate the worker's machine cache
    (so the retry starts from a fresh boot), retries back off exponentially,
    and a trial whose every attempt failed yields an
    {!Outcome.Infrastructure_failure} record with a zero collector tally and
    a synthesized trace carrying its failed attempts.

    Retry is for a failure the worker survives and can report. A worker
    process that vanishes mid-trial reports nothing; the distributed
    fabric's lease table charges that death to the trials it held
    ({!Lease.worker_dead}) instead. Both paths quarantine through
    {!quarantine_entry}, so the two verdicts have one shape. *)
