(** The G4-like CPU: state, interpreter and supervisor-register model.

    Mirrors {!Ferrite_cisc.Cpu} for the PowerPC side: 32 GPRs, LR/CTR/CR/XER,
    MSR, and a 99-entry supervisor SPR file matching the paper's G4 campaign
    (§5.2), of which only ~15 registers can actually crash the kernel:
    MSR (IR/DR translation bits → machine check), SRR0/SRR1 (used by RFI),
    SPRG2 = SPR274 (kernel stack switch), SDR1 and the BAT0/segment registers
    (translation), and HID0 = SPR1008 (branch-target instruction cache). *)

type cache
(** The translation caches ({!Ferrite_machine.Tcache}, written once for
    both CPUs): the PC-keyed decode cache, its wild-march memo and the
    two-way superblock table, with their counters (see {!cache_stats}).
    Decode entries and blocks are validated against the backing pages'
    generation counters, so stores, pokes and injected bit flips evict; an
    instruction that straddles two pages is validated by both. *)

type t = {
  mem : Ferrite_machine.Memory.t;
  gpr : int array;  (** 32 general-purpose registers; r1 = stack pointer *)
  mutable pc : int;
  mutable lr : int;
  mutable ctr : int;
  mutable cr : int;
  mutable xer : int;
  mutable msr : int;
  sprs : int array;  (** indexed by SPR number *)
  sr : int array;  (** 16 segment registers *)
  sr_poisoned : bool array;
  dr : Ferrite_machine.Debug_regs.t;
  counters : Ferrite_machine.Counters.t;
  stop_addr : int;
  mutable translation_broken : bool;
  mutable bat_poisoned : bool;
  mutable sdr1_poisoned : bool;
  mutable btic_poisoned : bool;
  mutable last_indirect_target : int;
  mutable pending_hit : Ferrite_machine.Debug_regs.data_hit option;
  mutable stopped : bool;
  mutable last_store_addr : int;
  cache : cache;
      (** set up at {!create} from [Memory.fast_paths] (decode cache) and
          [Memory.superblocks] (block table); either off forces the precise
          path, for differential testing *)
}

(** MSR bit masks (standard PowerPC encodings). *)

val msr_ee : int
val msr_pr : int
val msr_me : int
val msr_ir : int
val msr_dr : int

(** Well-known SPR numbers used by the harness and the kernel stubs. *)

val spr_srr0 : int
val spr_srr1 : int
val spr_sprg0 : int
val spr_sprg2 : int
val spr_hid0 : int
val spr_sdr1 : int

val create : mem:Ferrite_machine.Memory.t -> stop_addr:int -> t

val cr_field : t -> int -> int
(** [cr_field t n] reads 4-bit condition field [n] (0 = CR0). *)

type 'fault step = 'fault Ferrite_machine.Step.result =
  | Retired
  | Halted
      (** the shared {!Ferrite_machine.Step.result} constructor: only the
          CISC [hlt] produces it; the G4 model has no wait instruction, so
          this CPU never returns it *)
  | Hit_ibp
  | Hit_dbp of Ferrite_machine.Debug_regs.data_hit
  | Stopped  (** control returned to the harness (BLR/RFI to the stop address) *)
  | Faulted of 'fault

type step_result = Exn.t step

val step : ?skip_ibp:bool -> t -> step_result

val run : t -> max_steps:int -> step_result
(** [run t ~max_steps] executes up to [max_steps] instructions, using cached
    superblocks (built on demand) for straight-line code and falling back to
    the precise {!step} whenever translated execution could not reproduce its
    observable semantics: an armed execute breakpoint at the block entry
    (blocks are cut just before a later armed pc), poisoned address
    translation, misaligned pc, or a terminator instruction ([sc]/[rfi]/
    [mtspr]/[mtmsr]). Returns the first event ([Retired] when the budget ran
    out) and leaves the number of cleanly retired instructions, [n], in
    {!run_retired}. For [Hit_dbp]/[Stopped] the event-carrying instruction
    has retired (counters include it) but is excluded from [n]; for
    [Faulted] the exception has been delivered exactly as {!step} would.
    Observable behaviour is bit-identical to calling {!step} in a loop; only
    the diagnostic cache counters differ. Once its blocks are built, a run
    allocates nothing unless it ends on an event. *)

val run_retired : t -> int
(** The number of instructions the last {!run} cleanly retired. *)

val superblocks_on : t -> bool
(** Whether {!run} executes through superblocks ([Memory.superblocks] at
    {!create}); [false] makes it take the precise per-step path. *)

val prewarm : t -> (int * int) list -> unit
(** [prewarm t funcs] pre-decodes the given [(addr, size)] code ranges into
    the decode cache and builds superblocks at likely entry points (function
    starts, branch targets, fall-throughs of block enders), so a campaign's
    first trials do not pay the cold-miss tail. Touches only caches and
    diagnostic counters; architectural state is unaffected. No-op when the
    decode cache is disabled. *)

val cache_stats : t -> Ferrite_machine.Cache_stats.t
(** The decode, pre-warm and superblock counters — monotonic diagnostics,
    excluded from {!snapshot}/{!restore}; the memory fields are zero. *)

val cached_block_len : t -> int -> int
(** [cached_block_len t pc] is the micro-op count of the valid superblock
    cached for entry [pc] in either way of the table: [0] when the cache
    remembers a terminator at [pc], [-1] when no valid block is cached
    there. Diagnostics. *)

type sysreg = {
  sr_name : string;
  sr_bits : int;
  sr_get : t -> int;
  sr_set : t -> int -> unit;
}

val system_registers : sysreg array
(** The 99 supervisor-model injection targets of the G4 campaign. *)

val exception_dispatch_cycles : int

type snapshot
(** Immutable copy of all architectural and harness-visible CPU state
    (registers, SPRs, counters, armed breakpoints, poison flags). Memory is
    snapshotted separately by {!Ferrite_machine.Memory.snapshot}. *)

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
(** [restore t s] rolls every mutable field back to the captured values; used
    with a post-boot snapshot it is a cheap logical reboot. *)
