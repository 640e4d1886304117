(** Error-injection campaigns (the paper's §3.2 automation loop).

    A campaign runs [injections] independent error injections of one kind
    against one platform, rebooting the target after every manifested run and
    reusing the system after non-activated ones — the paper's STEP 3 policy,
    realised as an explicit per-worker system cache (see {!Trial}).

    Campaigns are decomposed as plan → execute → merge: {!Trial.plan} derives
    one pure spec per injection counter-style from [seed], an {!Executor}
    runs them (sequentially or on a domain pool), and the records are merged
    back in trial order. Campaigns are deterministic in [seed], and the
    record list is identical for every executor. *)

type config = {
  arch : Ferrite_kir.Image.arch;
  kind : Target.kind;
  injections : int;
  seed : int64;
  ops_per_run : int;  (** workload length per injection run *)
  collector_loss : float;
  collector_retries : int;
      (** bounded dump-retransmission budget per crash (0 = the paper's
          single-shot UDP channel); together with [collector_loss] this makes
          the Unknown-Hang sensitivity to dump loss a measurable knob *)
  engine : Engine.config;
  variant : Ferrite_kernel.Boot.variant;  (** kernel build variant (ablations) *)
  fault_model : Fault_model.t;
  targeting : Target.targeting;
      (** [fault_model] and [targeting] each have one value, the paper's
          single-bit flip and uniform draw. They are kept for [bench/perf]'s
          copy of the trial path, which names them, until that copy is
          replaced (ROADMAP item 5). *)
}

val default :
  arch:Ferrite_kir.Image.arch -> kind:Target.kind -> injections:int -> config
(** The paper's configuration: single-bit transient faults, uniform
    targeting. *)

(** {2 Supervision}

    Campaigns run unsupervised by default — any harness failure aborts the
    run, exactly as before. Passing [?supervision] to {!run} threads every
    trial through {!Supervisor}: crash containment with retry and
    quarantine, optional chaos drills, and an optional checkpoint journal. *)

type supervision = {
  sv_policy : Supervisor.policy;
  sv_chaos : Supervisor.chaos;
  sv_journal : string option;
      (** checkpoint journal path. Without [sv_resume] the path names a
          {e new} journal — an existing file there is replaced. *)
  sv_resume : bool;
      (** recover the journal's completed trials first and skip them; the
          resumed campaign's records/collector/traces/telemetry are
          byte-identical to an uninterrupted run under any executor *)
}

val default_supervision : supervision
(** {!Supervisor.default_policy}, no chaos, no journal, no resume. *)

val plan_fingerprint : ?supervision:supervision -> config -> string
(** The canonical, jobs-independent plan description whose
    {!Journal.plan_hash_of_string} binds a journal to one campaign: every
    config field that shapes a trial record is included, the executor choice
    deliberately is not (a journal written under [--jobs 4] must seed a
    [--jobs 1] resume). With [?supervision], the chaos plan and retry ceiling
    are appended, since they shape quarantined records. *)

type result = {
  cfg : config;
  records : Outcome.record list;  (** in trial order, executor-independent *)
  traces : Ferrite_trace.Tracer.trial list;
      (** per-trial event traces in trial order (empty event lists unless a
          retaining [tracer] config was passed to {!run}) *)
  dumps : Crash_dump.t option list;
      (** structured crash dumps in trial order; [Some] exactly for
          [Known_crash] records of freshly-run trials (journal-resumed trials
          carry [None] — the v2 journal format predates dumps) *)
  telemetry : Ferrite_trace.Telemetry.t;
      (** exact campaign counters; [tl_boots] is filled from [reboots] and is
          the only executor-dependent field *)
  hot_profile : (string * float) list;  (** the profiled function weights used *)
  reboots : int;  (** boots + policy reboots, summed over workers *)
  collector : Collector.stats;  (** merged dump-channel delivery tallies *)
  cache : Ferrite_machine.Cache_stats.t;
      (** TLB / dirty-restore / decode-cache counters summed over workers —
          scheduling-dependent diagnostics, like [reboots] *)
  supervision : Supervisor.report option;
      (** retry / quarantine / resume bookkeeping; [Some] iff {!run} was
          given [?supervision] *)
}

val plan : config -> Trial.spec array
(** The campaign's trial decomposition (pure; exposed for tests and tools). *)

(** {2 Campaign inputs}

    A campaign's expensive read-only inputs depend only on the kernel it
    attacks, (arch, variant): the compiled image and the hot set profiled
    from a fault-free workload run. A caller that runs several campaigns of
    one kernel builds them once with {!build_inputs} and hands them to each
    {!run}. Nothing caches them behind the caller's back: every run that is
    not handed inputs derives its own, as a user's invocation does. *)

type inputs = private {
  in_arch : Ferrite_kir.Image.arch;
  in_variant : Ferrite_kernel.Boot.variant;
  in_image : Ferrite_kir.Image.t;
  in_hot : (string * float) list;  (** becomes [env_hot] and [hot_profile] *)
}

val build_inputs : ?variant:Ferrite_kernel.Boot.variant -> Ferrite_kir.Image.arch -> inputs
(** Compile the kernel ([variant] defaults to {!Ferrite_kernel.Boot.standard})
    and profile it. Pure in its arguments. *)

val inputs_built : unit -> int
(** How many times {!build_inputs} has run in this process (tests use it to
    show that sharing happens and that nothing is memoised). *)

val environment_with : inputs -> config -> Trial.env
(** The campaign's read-only execution environment over prebuilt inputs —
    image, hot set ([env_hot]), validated engine and fault model. Raises
    [Invalid_argument] for a [collector_loss] outside [0, 1], as {!run}
    does before it opens a journal, and for inputs built for another
    (arch, variant) than the config names. *)

val environment : config -> Trial.env
(** [environment_with (build_inputs ~variant:cfg.variant cfg.arch) cfg].
    Pure in the config: every caller derives the environment a sequential
    run uses, which is one half of every executor's byte-identity argument
    (the other is {!Trial.run}'s purity in the spec). *)

val open_journal : supervision -> config -> Journal.writer option * Journal.recovery
(** Open [sv_journal] (if any) for appending, bound to
    [plan_fingerprint ~supervision config]: the file is replaced unless
    [sv_resume], and the returned recovery holds the trials it already
    completed. The in-process {!run} and the distributed controller both
    open their journal here, so each resumes the other's file. Raises
    {!Journal.Header_mismatch} for a journal of another plan. *)

val of_outcome :
  config ->
  hot:(string * float) list ->
  ?supervision:Supervisor.report ->
  Executor.outcome ->
  result
(** Wrap a merged {!Executor.outcome} as a campaign result, filling
    [tl_boots] from its [reboots]. *)

val run :
  ?progress:(done_:int -> total:int -> unit) ->
  ?executor:Executor.t ->
  ?tracer:Ferrite_trace.Tracer.config ->
  ?supervision:supervision ->
  ?inputs:inputs ->
  config ->
  result
(** Run every trial. [inputs] defaults to [build_inputs ~variant:cfg.variant
    cfg.arch]; passing prebuilt ones changes nothing but the set-up time.
    [executor] defaults to {!Executor.default}
    (sequential); [Executor.Parallel] produces the identical [records],
    [collector], [traces] and [telemetry] fields — only the diagnostics
    [reboots] (and hence [telemetry.tl_boots]) and [cache] may differ, by at
    most one boot per extra worker.
    [tracer] defaults to {!Ferrite_trace.Tracer.telemetry_only}: counters are
    always exact; pass a positive capacity to retain per-trial event
    timelines.
    [supervision] enables crash containment (see {!supervision} above); with
    [sv_resume], a journal written for a {e different} plan fingerprint
    raises {!Journal.Header_mismatch} instead of silently mixing campaigns. *)

(** {2 Aggregate views (the rows of Tables 5/6)} *)

type summary = {
  injected : int;
  activated : int;
  activation_known : bool;  (** false for register campaigns (N/A) *)
  not_manifested : int;
  fsv : int;
  known_crash : int;
  hang_or_unknown : int;
  infrastructure : int;
      (** quarantined trials — harness casualties, excluded from [injected]
          and hence from every Table 5/6 percentage *)
}

val summarize : result -> summary

val summarize_records : kind:Target.kind -> Outcome.record list -> summary
(** Tally an arbitrary record slice (e.g. one {!group_by_model} bucket) the
    same way {!summarize} tallies a whole campaign. *)

val crash_causes : result -> (Crash_cause.t * int) list
(** Known-crash cause counts, descending. *)

val latencies : result -> int list
(** Cycles-to-crash of every known crash. *)

val group_by_model : result -> (string * Outcome.record list) list
(** Records bucketed by {!Fault_model.tag}, in order of first appearance;
    quarantined trials excluded. One bucket per model actually run — the
    rows of the per-model Table 5/6 breakouts. *)
