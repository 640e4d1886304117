(** Executes a single error injection against a booted system running a
    workload — the paper's §3.2 STEP 2/3 automaton.

    Faithful to the NFTAPE injector mechanics (§3.3):
    - code errors are injected when an instruction breakpoint fires, {e before}
      the target instruction executes; the corrupted bytes persist for the
      rest of the run;
    - stack/data errors are injected up front; a data watchpoint detects
      activation {e after} the first access; write accesses overwrite the
      error, so it is re-injected; if the watchpoint never fires, the original
      value is restored and the error counts as not activated;
    - register errors are injected at a pre-chosen instant; activation cannot
      be observed (Tables 5/6 report N/A), so latency runs from injection. *)

type config = {
  step_budget : int;  (** watchdog: steps before the run is declared hung *)
  tick_interval : int;
      (** machine steps between runner polls. {b Invariant:} must be a power
          of two — the run loop tests [steps land (tick_interval - 1) = 0].
          Configs are passed through {!validated}, which rounds a non-power
          up; rely on that only for convenience, not for exact poll rates. *)
  handler_cycles_cisc : int;
      (** Fig. 3 stage-3 software-handler cost on the P4 model (cold-path
          150-200 instructions on a deep pipeline) *)
  handler_cycles_risc : int;  (** same on the G4 model *)
}

val default_config : config

val validated : config -> config
(** Check a config at construction time: raises [Invalid_argument] when
    [step_budget] or [tick_interval] is non-positive, and rounds
    [tick_interval] up to the next power of two otherwise. {!run_one} applies
    this to every config it receives. *)

val flip_word_bit : Ferrite_kernel.System.t -> int -> int -> unit
(** Flip bit [0..31] of the 32-bit word at an address, respecting the
    architecture's byte order so that "bit 0" is the word's LSB on both. *)

val flip_code_bit : Ferrite_kernel.System.t -> int -> int -> unit
(** Flip a bit of an instruction word. Same addressing as {!flip_word_bit}:
    the RISC core fetches instructions big-endian, so the flip must use the
    arch-aware byte swap there too. *)

val run_one :
  ?tracer:Ferrite_trace.Tracer.t ->
  ?model:Fault_model.t ->
  ?fault_seed:int64 ->
  ?on_dump:(Crash_dump.t -> unit) ->
  sys:Ferrite_kernel.System.t ->
  runner:Ferrite_workload.Runner.t ->
  target:Target.t ->
  collector:Collector.t ->
  config ->
  Outcome.record
(** [tracer], when given, receives the full event stream of the run —
    arm/flip/re-inject/restore, breakpoint and watchpoint hits, exception
    raise/handler/classify, collector sends and watchdog expiry — each
    stamped with the cycle/instruction counters and the current PC.

    [model] (default and only value {!Fault_model.Single_bit_transient}) is
    copied into the record; [fault_seed] is ignored. Both are kept for
    [bench/perf]'s copy of the trial path until that copy is replaced
    (ROADMAP item 5).

    [on_dump] (default: ignore) fires exactly when a crash dump is delivered
    to the collector (i.e. for every [Known_crash]), with the structured
    {!Crash_dump.t} captured while the machine is still at the crash point.
    A lost dump fires nothing — for triage that crash stays a silent drop,
    as in the paper. *)
