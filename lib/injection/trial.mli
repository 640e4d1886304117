(** Deterministic trial decomposition: the {e plan} half of the campaign's
    plan → execute → merge pipeline.

    A campaign of N injections is decomposed into N trial {!spec}s, each a
    pure value derived counter-style from the campaign seed and the trial
    index ({!Ferrite_machine.Rng.derive}).  Because a spec carries its own
    target/workload/collector seeds, any trial can be run in isolation, in
    any order, on any domain, and its {!Outcome.record} depends on the spec
    alone — which is what lets {!Executor.Parallel} reproduce
    {!Executor.Sequential} bit for bit. *)

type spec = {
  index : int;  (** position in the campaign, 0-based; records are merged back in this order *)
  workload : Ferrite_workload.Workload.t;  (** the one benchmark program this trial runs *)
  target_seed : int64;  (** stream for STEP 1 target generation *)
  workload_seed : int64;  (** stream for the workload's operation list *)
  collector_seed : int64;  (** stream for the lossy dump channel *)
  fault_seed : int64;
      (** drawn after the three seeds above and read by nothing: the
          single-bit model draws no randomness. Kept so that plans, and the
          journals and digests that pin them, keep their bytes. *)
  variant : Ferrite_kernel.Boot.variant;  (** kernel build variant (ablations) *)
  forced_target : Target.t option;
      (** bypass STEP 1 and inject exactly this target ([plan] always sets
          [None]; scenario replays pin the paper's published targets) *)
}

val plan :
  seed:int64 -> injections:int -> variant:Ferrite_kernel.Boot.variant -> spec array
(** Derive the full trial list for a campaign. Pure: same inputs, same specs. *)

(** {2 Execution} *)

type env = {
  env_arch : Ferrite_kir.Image.arch;
  env_kind : Target.kind;
  env_image : Ferrite_kir.Image.t;  (** built once per campaign, shared read-only *)
  env_hot : (string * float) list;  (** profiled function weights for code targets *)
  env_engine : Engine.config;
  env_collector_loss : float;
  env_collector_retries : int;  (** bounded retransmission budget per dump *)
  env_fault_model : Fault_model.t;
  env_targeting : Target.targeting;
      (** one value each, kept for [bench/perf]'s copy of the trial path
          until that copy is replaced (ROADMAP item 5) *)
}

(** {2 Machines} *)

type machines
(** A kernel's post-boot machines: the snapshot taken right after its one
    boot, and a slot holding at most one live machine, the spare. A {!cache} takes the spare atomically, so at most one cache
    holds it at a time, and {!cache_release} hands it back; when the slot
    is empty, or its machine was made under other fast-path or superblock
    defaults ({!Ferrite_machine.Memory.matches_defaults}), the cache builds
    a new machine from the snapshot ({!Ferrite_kernel.Boot.of_snapshot})
    instead of running boot code. A cache pre-warms the machine it takes
    ({!Ferrite_kernel.System.prewarm}) unless it is already warm: pre-warmed
    by an earlier cache, or handed back by a {!with_machine} [~warms:true]
    (the hot-set profile). A machine that has run nothing since boot or
    since it was built from the snapshot is always pre-warmed. Either way
    the machine starts each trial in the snapshot's state, so records never
    depend on which one ran. *)

val boot_machines : Ferrite_kir.Image.t -> machines
(** Boot the image ({!Ferrite_kernel.Boot.boot}) and snapshot it; the
    booted machine becomes the spare. *)

val drop_spare : machines -> unit
(** Empty the slot: the next taker builds its machine from the snapshot,
    and the spare, unless a cache still holds it, becomes garbage. A machine
    handed back later fills the slot again. The fleet controller calls it
    at its first event-loop turn: workers forked before then inherit the
    warm spare, and later ones build from the snapshot. *)

val with_machine : ?warms:bool -> machines -> (Ferrite_kernel.System.t -> 'a) -> 'a
(** [with_machine ms f] runs [f] on a machine in the snapshot's state, taken
    as a {!cache} takes one but without pre-warming it, and hands the
    machine back afterwards (not if [f] raises). [warms] (default [false])
    marks it warm on the way back: [f] ran enough of the kernel (the
    hot-set profile's workload mix) that its next taker skips the
    pre-warm. Not counted as a boot anywhere. *)

(** {2 The per-worker cache} *)

type cache
(** A worker's system cache — the paper's "reuse the system after Not
    Activated" STEP 3 policy made explicit.  The cache holds one machine,
    taken from its {!machines} on the first {!run}; every trial starts from
    the post-boot snapshot (a cheap logical reboot via
    {!Ferrite_kernel.System.restore}), so records never depend on which
    worker ran the trial or in what order. {!reboots} counts the machines
    the cache took (the spare's first rollback, or a build from the
    snapshot, each counted as the one boot a fresh worker performs) plus
    the rollbacks the paper's policy would have performed as real reboots
    (i.e. after manifested runs). *)

val cache_create : machines -> cache
val reboots : cache -> int

val cache_invalidate : cache -> unit
(** Drop the cached machine (but keep the reboot tally); it is never handed
    back. Used by the supervisor after a contained harness failure, whose
    machine may be stuck mid-trial in an arbitrary state: the next {!run}
    takes another machine, so every retry starts from a genuinely fresh
    one. *)

val cache_release : cache -> unit
(** Hand the cache's machine back as its {!machines}' spare, if it holds one
    and the slot is empty, and let go of it: a later {!run} takes a machine
    again, and {!cache_stats} reads zero. The executors call it when a
    worker's trials are done. *)

val cache_stats : cache -> Ferrite_machine.Cache_stats.t
(** Cache-layer counters ({!Ferrite_kernel.System.cache_stats}) of the
    cache's machine since the cache took it, its rollback and pre-warm
    included: a campaign on the shared spare reports its own blocks and
    misses, not the machine's lifetime totals.
    {!Ferrite_machine.Cache_stats.zero} if the cache holds no machine. Like
    {!reboots}, these depend on how trials were scheduled over workers, so
    they are diagnostics — never part of records or telemetry. *)

val run :
  ?trace:Ferrite_trace.Tracer.config ->
  env ->
  cache ->
  spec ->
  Outcome.record * Collector.stats * Ferrite_trace.Tracer.trial * Crash_dump.t option
(** Execute one trial: take or restore a pristine system in the cache, draw
    the target and workload from the spec's seeds, run the §3.2 automaton,
    and report the record plus the trial's collector delivery tally, its
    event trace, and the structured crash dump ([Some] exactly for
    [Known_crash] outcomes — a dump the collector received).  [trace]
    defaults to {!Ferrite_trace.Tracer.telemetry_only} (exact counters, no
    retained events), so campaigns always collect telemetry for free; pass a
    positive capacity to keep the event timeline. *)
