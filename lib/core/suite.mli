(** Full injection suites: the four campaigns of Table 5/6 for one platform,
    with campaign sizes scaled from the paper's counts. *)

type scale = {
  stack_n : int;
  sysreg_n : int;
  data_n : int;
  code_n : int;
}

val paper_counts : Ferrite_kir.Image.arch -> scale
(** The paper's exact campaign sizes (P4: 10143/3866/46000/1790;
    G4: 3017/3967/46000/2188). *)

val scaled : Ferrite_kir.Image.arch -> float -> scale
(** [scaled arch f] multiplies the paper's counts by [f] (minimum 50 per
    campaign). The default bench uses ~0.1. *)

type t = {
  arch : Ferrite_kir.Image.arch;
  stack : Ferrite_injection.Campaign.result;
  sysreg : Ferrite_injection.Campaign.result;
  data : Ferrite_injection.Campaign.result;
  code : Ferrite_injection.Campaign.result;
}

val run :
  ?seed:int64 ->
  ?progress:(string -> done_:int -> total:int -> unit) ->
  ?executor:Ferrite_injection.Executor.t ->
  scale:scale ->
  Ferrite_kir.Image.arch ->
  t
(** Run the four campaigns. They attack one kernel, so its campaign inputs
    ({!Ferrite_injection.Campaign.build_inputs}) are built once per call and
    shared; the results equal four standalone {!Ferrite_injection.Campaign.run}
    calls. [executor] (default sequential) is threaded through every
    campaign; results are executor-independent (see
    {!Ferrite_injection.Campaign.run}). *)

val campaign : t -> Ferrite_injection.Target.kind -> Ferrite_injection.Campaign.result

val total_injections : t -> int
