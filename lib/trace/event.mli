(** Trace events emitted by the injection pipeline.

    Each event is paired with a {!stamp} capturing the machine's performance
    counters and program counter at emission time — the raw material of the
    paper's per-injection evidence (Figs. 7-9 and 13-15 are exactly such
    timelines). Payloads are plain values so this library has no dependency
    on the machine, kernel or injection layers. *)

type stamp = {
  s_cycles : int;  (** simulated cycle counter at emission *)
  s_instructions : int;  (** retired-instruction counter at emission *)
  s_pc : int;  (** program counter at emission *)
  s_function : string option;  (** symbolised [s_pc], when inside a function *)
}

type bp_kind = Instruction | Data

type space = Code_space | Stack_space | Data_space

val space_label : space -> string

type t =
  | Trial_begin of { trial : int; target : string }
  | Trial_end of { trial : int; outcome : string }
  | Arm_bp of { kind : bp_kind; addr : int }  (** STEP 2: breakpoint armed *)
  | Flip of { space : space; addr : int; bit : int }  (** a memory bit flipped *)
  | Reg_flip of { reg : string; bit : int }  (** a register bit flipped *)
  | Reinject of { addr : int; bit : int }  (** §3.3 write-overwrite re-injection *)
  | Restore of { addr : int; bit : int }  (** STEP 3 undo of a never-activated error *)
  | Bp_hit of { addr : int; stray : bool }  (** instruction breakpoint fired *)
  | Watch_hit of { addr : int; is_write : bool }  (** data watchpoint fired *)
  | Activated of { via : string }  (** first evidence the error was consumed *)
  | Exn_raised of { fault : string }  (** hardware exception delivered *)
  | Handler_done of { fault : string; cycles : int }  (** crash handler cost charged *)
  | Classified of { cause : string option; latency : int }
      (** Table 3/4 verdict; [None] when no dump could be produced *)
  | Collector_send of { delivered : bool }  (** lossy UDP dump channel *)
  | Collector_retransmit of { retries : int }
      (** the dump needed [retries] retransmissions (loss or lost acks) *)
  | Watchdog_expired of { steps : int }  (** step-budget watchdog fired *)
  | Trial_retry of { trial : int; attempt : int; reason : string }
      (** supervisor: an attempt failed; the trial restarts from a fresh boot *)
  | Trial_quarantined of { trial : int; attempts : int; reason : string }
      (** supervisor: every attempt failed; the trial is quarantined as an
          infrastructure failure and excluded from Table 5/6 percentages *)
  | Resume_skip of { trial : int }
      (** supervisor: trial result recovered from the journal, not re-run *)

val tag : t -> string
(** Stable machine-readable tag (the JSONL ["event"] field). *)

val describe : t -> string
(** One-line human-readable description, without the stamp. *)
