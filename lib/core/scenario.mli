(** Scenario replays: the paper's per-injection examples (Figs. 7, 13, 14)
    as single forced-target trials run through the real campaign pipeline
    with a retaining tracer, rendered as annotated timelines.

    The replay goes through {!Ferrite_injection.Executor.run}, so the
    rendered trace is byte-identical under [Sequential] and [Parallel] —
    pinned by the golden-trace tests. *)

type t = {
  sc_name : string;  (** CLI identifier, e.g. ["fig7"] *)
  sc_title : string;
  sc_note : string;
  sc_arch : Ferrite_kir.Image.arch;
  sc_kind : Ferrite_injection.Target.kind;
  sc_workload : Ferrite_workload.Workload.t;
  sc_workload_seed : int64;
  sc_target : Ferrite_kernel.System.t -> Ferrite_injection.Target.t;
      (** resolves the paper's published target against a booted system *)
}

val fig7 : t
(** Figure 7: free_pages_ok epilogue flip — undetected stack overflow (P4). *)

val fig13 : t
(** Figure 13: spinlock-magic data flip reported as Invalid Instruction (P4). *)

val fig14 : t
(** Figure 14: getblk entry flip — decoder re-synchronisation (P4). *)

val all : t list
val find : string -> t option

type result = {
  scenario : t;
  target : Ferrite_injection.Target.t;  (** the resolved concrete target *)
  outcome : Ferrite_injection.Outcome.record;
  trace : Ferrite_trace.Tracer.trial;
  dump : Ferrite_injection.Crash_dump.t option;
      (** structured dump for triage; [Some] iff the replay ended in a
          delivered [Known_crash] *)
}

val run : ?trace:Ferrite_trace.Tracer.config -> t -> result
(** Replay the scenario as a one-spec campaign, sequentially (a one-trial
    plan runs on one worker under every executor). Deterministic: same
    scenario, same bytes. *)

val render : result -> string
(** Title, note, target, outcome and the annotated event timeline. *)
