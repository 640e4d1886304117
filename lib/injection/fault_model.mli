(** The fault model: the paper's single-bit transient flip, the only one
    Ferrite injects. [Engine.run_one] lands it directly; this module names it
    in records ({!Outcome.record}'s [r_model]), the store's model column and
    the report's breakout. The type and its two functions are kept for
    [bench/perf]'s copy of the trial path until that copy is replaced
    (ROADMAP item 5). *)

type t = Single_bit_transient

val validated : t -> t
(** The identity: every value is valid. *)

val tag : t -> string
(** ["single_bit"], the model's stable name in statistics and breakouts. *)
