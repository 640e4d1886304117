(** Regenerates every table and figure of the paper from campaign results,
    printing the published values alongside, and evaluates the qualitative
    "shape" claims the reproduction must preserve. *)

val table1 : unit -> string
(** Experiment setup — the paper's machines and the simulated stand-ins. *)

val table2 : unit -> string
(** Outcome categories. *)

val table3 : unit -> string
(** P4 crash-cause categories. *)

val table4 : unit -> string
(** G4 crash-cause categories. *)

val table5 : Suite.t -> string
(** P4 activation & failure distribution (expects a CISC suite). *)

val table6 : Suite.t -> string
(** G4 equivalent (expects a RISC suite). *)

val summary_row : string -> Ferrite_injection.Campaign.summary -> string list
(** One Table 5/6 row: [label], injected, activated (N/A for register
    campaigns), then each outcome as a count and its share of the activated
    errors (of the injected ones when activation is unknown). *)

val table5_of :
  (string * Ferrite_injection.Campaign.summary) list -> string
(** {!table5} from pre-tallied summaries (Stack, System Registers, Data,
    Code — in that order, paired with the paper rows). {!table5} and the
    store-backed report both render through this, which is what makes
    [report --from-store] byte-identical over the same records. *)

val table6_of :
  (string * Ferrite_injection.Campaign.summary) list -> string

val triage_table :
  ?title:string ->
  arch:Ferrite_kir.Image.arch ->
  kind:Ferrite_injection.Target.kind ->
  (Ferrite_injection.Triage.bucket * int) list ->
  string
(** Root-cause family breakdown (the paper's §5 case-study families) with
    shares w.r.t. all triaged failures. Zero-count families are kept, so the
    table shape is stable across campaigns. *)

val from_store_report : Ferrite_injection.Result_store.agg list -> string
(** The [report --from-store] body: Table 5 and/or 6 when the store holds
    all four campaign kinds for that architecture, then one per-fault-model
    breakout and one triage table per (arch, kind) in store order. *)

val fig4 : Suite.t -> string
val fig5 : Suite.t -> string
val fig6 : p4:Suite.t -> g4:Suite.t -> string
val fig10 : p4:Suite.t -> g4:Suite.t -> string
val fig11 : p4:Suite.t -> g4:Suite.t -> string
val fig12 : p4:Suite.t -> g4:Suite.t -> string
val fig16 : p4:Suite.t -> g4:Suite.t -> string

val model_breakout : ?title:string -> Ferrite_injection.Campaign.result -> string
(** Table 5/6-style rows broken out per fault model, one labelled group per
    {!Ferrite_injection.Fault_model.tag} in campaign order; every campaign
    runs the single-bit model, so this is one group. Kept for [bench/perf],
    which renders it, until its copy of the trial path is replaced (ROADMAP
    item 5). *)

val telemetry_table : Suite.t -> string
(** Injector bookkeeping counters per campaign (activations, re-injections,
    stray breakpoints, collector losses, boots). Every counter except boots
    is executor-independent. *)

val data_geometry : unit -> string
(** Quantifies §5.5's sparseness claim: the same kernel content occupies more
    bytes (with more never-accessed padding) in the G4's widened layout than
    in the P4's packed one. *)

type check = { ck_id : string; ck_claim : string; ck_pass : bool; ck_detail : string }

val shape_checks : p4:Suite.t -> g4:Suite.t -> check list
(** The paper's qualitative findings, evaluated against the measured data. *)

val render_checks : check list -> string

val full_report : p4:Suite.t -> g4:Suite.t -> string
(** Everything: tables, figures, latency panels and shape checks. *)

val cause_distribution :
  Ferrite_injection.Campaign.result -> (string * int) list
(** Known-crash causes by label, ordered by the architecture's table order
    (exposed for tests and the bench). *)
