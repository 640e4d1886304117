(** Arch-generic view of a booted machine: one simulated CPU running the
    linked kernel image. The workload driver and the injection framework
    operate exclusively through this interface, so campaigns are written once
    and run on both platforms. *)

type fault =
  | Cisc_fault of Ferrite_cisc.Exn.t
  | Risc_fault of Ferrite_risc.Exn.t

type 'fault step = 'fault Ferrite_machine.Step.result =
  | Retired
  | Halted
  | Hit_ibp
  | Hit_dbp of Ferrite_machine.Debug_regs.data_hit
  | Stopped
  | Faulted of 'fault

type step_result = fault step

type cpu = Ccpu of Ferrite_cisc.Cpu.t | Rcpu of Ferrite_risc.Cpu.t

type t = {
  arch : Ferrite_kir.Image.arch;
  image : Ferrite_kir.Image.t;
  mem : Ferrite_machine.Memory.t;
  cpu : cpu;
}

val arch_name : t -> string
(** ["P4"] or ["G4"], as the paper labels the platforms. *)

val step : ?skip_ibp:bool -> t -> step_result

val run : t -> max_steps:int -> step_result
(** [run t ~max_steps] executes up to [max_steps] instructions through the
    CPU's superblock engine, falling back to the precise per-step interpreter
    whenever translated execution could not reproduce its observable
    semantics. Returns the first event ([Retired] when the budget ran out);
    {!run_retired} then gives the [n] cleanly retired instructions. For
    [Hit_dbp]/[Stopped] the event-carrying instruction has retired (counters
    include it) but is excluded from [n]; for [Faulted] the exception has
    been delivered. Observable behaviour is bit-identical to a {!step}
    loop. *)

val run_retired : t -> int
(** The number of instructions the last {!run} cleanly retired. *)

val superblocks_on : t -> bool
(** Whether this CPU executes through superblocks (set at creation from
    {!Ferrite_machine.Memory.superblocks}). *)

val prewarm : t -> unit
(** Pre-decode the image's function ranges into the decode cache and build
    superblocks at likely entry points. Called once on the post-boot machine
    by the trial executor; touches only caches and diagnostic counters. *)

val pc : t -> int
val set_pc : t -> int -> unit

val sp : t -> int
(** Current kernel stack pointer (ESP / r1). *)

val counters : t -> Ferrite_machine.Counters.t
val debug_regs : t -> Ferrite_machine.Debug_regs.t

val peek32 : t -> int -> int
(** Read a word with the architecture's endianness, bypassing permissions. *)

val poke32 : t -> int -> int -> unit
val peek8 : t -> int -> int
val poke8 : t -> int -> int -> unit

val symbol : t -> string -> int

val global : t -> string -> int
(** [global t name] reads word 0 of a global (e.g. ["jiffies"]). *)

val set_global : t -> string -> int -> unit

type sysreg = { name : string; bits : int; get : unit -> int; set : int -> unit }

val system_registers : t -> sysreg array
(** The architecture's injectable system registers, closed over this CPU. *)

val task_struct_addr : t -> int -> int
(** Address of task i's task_struct (at the bottom of its kernel stack, as in 2.4). *)

val task_field : t -> int -> string -> int
(** Read a field of task i's task_struct (host-side, layout-aware). *)

val task_stack_range : t -> int -> int * int
(** [lo, hi) of task i's 8 KiB kernel stack. *)

val current_task_index : t -> int option
(** Index of the task the [current] pointer designates, if it is sane. *)

val idle_cycles : t -> int -> unit
(** Advance the cycle counter without executing (benchmark think time). *)

val cache_stats : t -> Ferrite_machine.Cache_stats.t
(** Memory-layer counters (TLB, dirty restore) merged with the CPU's decode
    cache counters. Monotonic diagnostics over the machine's lifetime —
    excluded from {!snapshot}/{!restore} and never part of campaign records
    or telemetry, so they may differ between executors. *)

type snapshot
(** Full machine state: memory plus CPU (registers, counters, breakpoints). *)

val snapshot : t -> snapshot
(** Capture the machine. Taken right after {!Ferrite_kernel.Boot.boot}, the
    snapshot is a pristine post-boot image. *)

val restore : t -> snapshot -> unit
(** Roll the machine back to a captured state — a logical reboot at a small
    fraction of the cost of re-running boot. Raises [Invalid_argument] if the
    snapshot came from a system of the other architecture. *)

val of_snapshot : image:Ferrite_kir.Image.t -> cpu:(Ferrite_machine.Memory.t -> cpu) -> snapshot -> t
(** A new machine in the captured state: a memory built by
    {!Ferrite_machine.Memory.of_snapshot}, so later restores to the same
    snapshot keep its generations, and a CPU made by [cpu] over that memory
    with the captured registers, counters and breakpoints. Its caches start
    empty. Raises [Invalid_argument] if [cpu] makes the other architecture's
    CPU. *)
