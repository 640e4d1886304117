(** Differential fault-trial runner: generated campaigns executed under all
    four configurations {fast, reference} × {Sequential, Parallel}, asserting
    byte-identical records, traces and telemetry (modulo the documented
    [tl_boots] counter) against the reference/Sequential baseline. *)

type spec = {
  df_arch : Ferrite_kir.Image.arch;
  df_kind : Ferrite_injection.Target.kind;
  df_seed : int64;
  df_injections : int;
  df_step_budget : int;
}

type mismatch = {
  mm_config : string;  (** which configuration diverged, e.g. ["fast/parallel"] *)
  mm_what : string;  (** ["records"], ["traces"], ["telemetry"], … *)
  mm_trial : int;  (** first diverging trial index, [-1] if not per-trial *)
}

val describe : spec -> string
val gen_spec : Ferrite_machine.Rng.t -> injections:int -> step_budget:int -> spec

val run_spec : spec -> (unit, mismatch) result
(** Run the whole campaign under the four configurations. *)

val run_trial : spec -> trial:int -> (unit, mismatch) result
(** Replay one trial in isolation (counter-style seeds make the slice exact). *)

val isolate : spec -> (spec * int * mismatch) option
(** For a failing spec: pin the first diverging trial and minimise the step
    budget that still shows the divergence — the minimal (program, flip, tick)
    reproducer.  [None] if the spec does not actually fail. *)
