(** Injection targets and their generators (the paper's §3.2 STEP 1).

    Targets are pre-generated before each run, as in NFTAPE: code targets are
    instruction addresses inside profile-hot kernel functions; stack targets
    are word/bit pairs near a randomly chosen task's live stack; data targets
    are word/bit pairs over the kernel data section (excluding the regions
    that model user pages and the disk); register targets name a system
    register, a bit, and an injection instant. *)

type t =
  | Code_target of { fn : string; addr : int; bit : int }
      (** [bit] indexes into the instruction's bytes: byte [bit/8], bit
          [bit mod 8]. *)
  | Stack_target of { task : int; addr : int; bit : int }
      (** word-aligned [addr]; [bit] is 0–31 within the word *)
  | Data_target of { addr : int; bit : int }
  | Reg_target of { index : int; name : string; bit : int; at_instr : int }

type kind = Code | Stack | Data | Register

type targeting = Uniform
(** Where the STEP-1 draw aims: the paper's uniform policy, the only one.
    Kept for [bench/perf]'s copy of the trial path, which names it, until
    that copy is replaced (ROADMAP item 5). *)

val kind_of : t -> kind
val describe : t -> string

val generate :
  Ferrite_kernel.System.t ->
  kind ->
  ?targeting:targeting ->
  hot:(string * float) list ->
  Ferrite_machine.Rng.t ->
  t
(** Draw one target. [hot] is the profiled function distribution used for
    code targets (the paper injects into functions covering ≥95% of kernel
    execution). Raises [Invalid_argument] — before consuming any randomness
    — when the hot distribution (for code targets) is empty or carries a
    non-positive/non-finite weight. *)

val data_ranges : Ferrite_kernel.System.t -> (int * int) list
(** Eligible kernel-data [ (addr, size) ] ranges (exposed for tests and for
    the data-sparseness report). *)
