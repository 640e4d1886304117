(** What one precise step, or one run of the translation engine, ended on.
    Both CPUs return it; ['fault] is the ISA's architectural exception. *)
type 'fault result =
  | Retired  (** one instruction completed *)
  | Halted  (** CISC [hlt] with interrupts enabled; the RISC CPU never halts *)
  | Hit_ibp  (** armed instruction breakpoint at the pc; nothing executed *)
  | Hit_dbp of Debug_regs.data_hit
      (** the instruction retired and touched a watched location *)
  | Stopped  (** control returned to the harness at the stop address *)
  | Faulted of 'fault  (** architectural exception at the faulting pc *)
