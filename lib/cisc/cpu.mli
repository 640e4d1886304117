(** The P4-like CPU: state, interpreter and system-register model.

    The CPU executes kernel code in a flat Linux-2.4-style address space. It
    is driven by a harness (the OS model in {!Ferrite_kernel}) through
    {!step}; architectural exceptions are returned to the harness rather than
    vectored into simulated handler code, mirroring how the paper's
    kernel-embedded crash handler observes them.

    System registers follow the paper's P4 campaign (§5.2): EFLAGS (system
    bits), ESP, EIP, CR0/CR2/CR3, GDTR/IDTR/LDTR/TR, DR0–DR3/DR6/DR7 and the
    FS/GS selectors — about twenty registers, of which only a handful can
    crash the kernel. *)

type cache
(** The translation caches ({!Ferrite_machine.Tcache}, written once for
    both CPUs): the PC-keyed decode cache and the two-way superblock
    table, with their counters (see {!cache_stats}).
    Decode entries and blocks are validated against the backing pages'
    generation counters, so stores, pokes and injected bit flips evict; an
    instruction that straddles two pages is validated by both. *)

type t = {
  mem : Ferrite_machine.Memory.t;
  regs : int array;  (** EAX ECX EDX EBX ESP EBP ESI EDI *)
  mutable eip : int;
  mutable eflags : int;
  mutable fs : int;
  mutable gs : int;
  mutable cr0 : int;
  mutable cr2 : int;
  mutable cr3 : int;
  mutable gdtr : int;
  mutable idtr : int;
  mutable ldtr : int;
  mutable tr : int;
  mutable dr_shadow : int array;  (** DR0-3, DR6, DR7 as injectable state *)
  mutable msr_shadow : int array;
      (** CR4, TSC, SYSENTER_CS/ESP/EIP — injectable but unconsulted by a 2.4
          int80 kernel *)
  dr : Ferrite_machine.Debug_regs.t;
  counters : Ferrite_machine.Counters.t;
  stop_addr : int;
  mutable tlb_poisoned : bool;
  mutable pending_hit : Ferrite_machine.Debug_regs.data_hit option;
  mutable stopped : bool;
  mutable last_store_addr : int;  (** diagnostics for crash dumps *)
  idtr0 : int;
  cr3_0 : int;
  cache : cache;
      (** set up at {!create} from [Memory.fast_paths] (decode cache) and
          [Memory.superblocks] (block table); either off forces the precise
          path, for differential testing *)
}

(** Register indices. *)

val eax : int
val ecx : int
val edx : int
val ebx : int
val esp : int
val ebp : int
val esi : int
val edi : int

(** EFLAGS bit positions. *)

val flag_cf : int
val flag_zf : int
val flag_sf : int
val flag_of : int
val flag_if : int
val flag_df : int
val flag_nt : int

val selector_kernel_cs : int
val selector_kernel_ds : int
val selector_user_cs : int
val selector_user_ds : int
val selector_percpu : int

val create : mem:Ferrite_machine.Memory.t -> stop_addr:int -> t
(** Fresh CPU in kernel mode with architectural reset values. *)

val getf : t -> int -> bool
(** [getf t bit] reads an EFLAGS bit. *)

val setf : t -> int -> bool -> unit

type 'fault step = 'fault Ferrite_machine.Step.result =
  | Retired  (** one instruction completed *)
  | Halted  (** HLT with interrupts enabled: CPU is idle *)
  | Hit_ibp  (** armed instruction breakpoint at EIP; nothing was executed *)
  | Hit_dbp of Ferrite_machine.Debug_regs.data_hit
      (** instruction retired and touched a watched location *)
  | Stopped  (** control returned to the harness (RET/IRET to the stop address) *)
  | Faulted of 'fault  (** architectural exception; EIP is the faulting address *)

type step_result = Exn.t step

val step : ?skip_ibp:bool -> t -> step_result
(** Execute (at most) one instruction. [skip_ibp] suppresses the
    instruction-breakpoint check once, so the injector can resume after
    servicing a hit. *)

val run : t -> max_steps:int -> step_result
(** [run t ~max_steps] executes up to [max_steps] instructions, using cached
    superblocks (built on demand) for straight-line code and falling back to
    the precise {!step} whenever translated execution could not reproduce
    its observable semantics: an armed execute breakpoint at the block entry
    (blocks are cut just before a later armed pc), poisoned translation, or
    a terminator instruction (HLT/IRET/INT/INT3/UD2/MOV-to-CR). Returns the
    first event ([Retired] when the budget ran out) and leaves the number of
    cleanly retired instructions, [n], in {!run_retired}. For
    [Hit_dbp]/[Stopped] the event-carrying instruction has retired (counters
    include it) but is excluded from [n]; for [Faulted] the exception has
    been delivered exactly as {!step} would. During a wild march through
    zero-filled memory ([00 00], [add [eax],al]) it retires all but the
    last step of each run in closed form, without a decode. Observable
    behaviour is bit-identical to calling {!step} in a loop; only the
    diagnostic cache counters differ. Once its blocks are built, a run
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

val push32 : t -> int -> unit
(** Harness primitive: push a word on the current stack (bypasses nothing —
    may raise {!Ferrite_machine.Memory.Fault} if ESP is unmapped). *)

type sysreg = {
  sr_name : string;
  sr_bits : int;
  sr_get : t -> int;
  sr_set : t -> int -> unit;
}

val system_registers : sysreg array
(** The P4 system-register injection targets. Setters model the architectural
    side effects of corruption (e.g. a CR3 write poisons translation; CR0.PE
    cleared trips #GP at the next privilege-sensitive point). *)

val exception_dispatch_cycles : int
(** Cycles charged for hardware exception dispatch (the paper's Fig. 3
    stage 2: "more than 1000 CPU cycles"). *)

type snapshot
(** Immutable copy of all architectural and harness-visible CPU state
    (registers, counters, armed breakpoints, poison flags). Memory is
    snapshotted separately by {!Ferrite_machine.Memory.snapshot}. *)

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
(** [restore t s] rolls every mutable field back to the captured values; used
    with a post-boot snapshot it is a cheap logical reboot. *)
