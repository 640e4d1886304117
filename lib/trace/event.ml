(* Trace events: the per-injection evidence stream of Figs. 7-9/13-15.

   Every event is stamped with the machine's cycle and instruction counters
   plus the PC (and its symbol) at emission time, so a buffer replays as an
   annotated timeline. The payloads are plain ints and strings: the trace
   library sits below the injection engine and knows nothing about targets,
   outcomes or crash causes beyond their rendered labels. *)

type stamp = {
  s_cycles : int;
  s_instructions : int;
  s_pc : int;
  s_function : string option;
}

type bp_kind = Instruction | Data

type space = Code_space | Stack_space | Data_space

let space_label = function
  | Code_space -> "code"
  | Stack_space -> "stack"
  | Data_space -> "data"

type t =
  | Trial_begin of { trial : int; target : string }
  | Trial_end of { trial : int; outcome : string }
  | Arm_bp of { kind : bp_kind; addr : int }
  | Flip of { space : space; addr : int; bit : int }
  | Reg_flip of { reg : string; bit : int }
  | Reinject of { addr : int; bit : int }
  | Restore of { addr : int; bit : int }
  | Bp_hit of { addr : int; stray : bool }
  | Watch_hit of { addr : int; is_write : bool }
  | Activated of { via : string }
  | Exn_raised of { fault : string }
  | Handler_done of { fault : string; cycles : int }
  | Classified of { cause : string option; latency : int }
  | Collector_send of { delivered : bool }
  | Collector_retransmit of { retries : int }
  | Watchdog_expired of { steps : int }
  | Trial_retry of { trial : int; attempt : int; reason : string }
  | Trial_quarantined of { trial : int; attempts : int; reason : string }
  | Resume_skip of { trial : int }
(* New constructors are appended (never inserted): Marshal numbers
   non-constant constructors by declaration order, and v1 journal payloads
   must keep decoding. *)

(* Stable machine-readable tag, used by the JSONL exporter. *)
let tag = function
  | Trial_begin _ -> "trial-begin"
  | Trial_end _ -> "trial-end"
  | Arm_bp _ -> "arm-bp"
  | Flip _ -> "flip"
  | Reg_flip _ -> "reg-flip"
  | Reinject _ -> "reinject"
  | Restore _ -> "restore"
  | Bp_hit _ -> "bp-hit"
  | Watch_hit _ -> "watch-hit"
  | Activated _ -> "activated"
  | Exn_raised _ -> "exn-raised"
  | Handler_done _ -> "handler-done"
  | Classified _ -> "classified"
  | Collector_send _ -> "collector-send"
  | Collector_retransmit _ -> "collector-retransmit"
  | Watchdog_expired _ -> "watchdog-expired"
  | Trial_retry _ -> "trial-retry"
  | Trial_quarantined _ -> "trial-quarantined"
  | Resume_skip _ -> "resume-skip"

(* One-line human-readable description (no stamp; the printer prepends it). *)
let describe = function
  | Trial_begin { trial; target } -> Printf.sprintf "trial %d begin — target %s" trial target
  | Trial_end { trial; outcome } -> Printf.sprintf "trial %d end — outcome %s" trial outcome
  | Arm_bp { kind = Instruction; addr } ->
    Printf.sprintf "arm instruction breakpoint @ %08x" addr
  | Arm_bp { kind = Data; addr } -> Printf.sprintf "arm data watchpoint @ %08x" addr
  | Flip { space; addr; bit } ->
    Printf.sprintf "flip %s bit %d @ %08x" (space_label space) bit addr
  | Reg_flip { reg; bit } -> Printf.sprintf "flip register %s bit %d" reg bit
  | Reinject { addr; bit } ->
    Printf.sprintf "re-inject bit %d @ %08x (write overwrote the error)" bit addr
  | Restore { addr; bit } ->
    Printf.sprintf "restore bit %d @ %08x (error never activated)" bit addr
  | Bp_hit { addr; stray = false } -> Printf.sprintf "instruction breakpoint hit @ %08x" addr
  | Bp_hit { addr; stray = true } ->
    Printf.sprintf "stray instruction breakpoint @ %08x (stepped over)" addr
  | Watch_hit { addr; is_write } ->
    Printf.sprintf "data watchpoint hit @ %08x (%s)" addr (if is_write then "write" else "read")
  | Activated { via } -> Printf.sprintf "error activated (%s)" via
  | Exn_raised { fault } -> Printf.sprintf "exception raised: %s" fault
  | Handler_done { fault; cycles } ->
    Printf.sprintf "crash handler ran (%s, +%d cycles)" fault cycles
  | Classified { cause = Some c; latency } ->
    Printf.sprintf "classified as %S, cycles-to-crash %d" c latency
  | Classified { cause = None; latency } ->
    Printf.sprintf "no crash dump produced (latency %d)" latency
  | Collector_send { delivered = true } -> "crash dump delivered to collector"
  | Collector_send { delivered = false } -> "crash dump lost in transit"
  | Collector_retransmit { retries } ->
    Printf.sprintf "crash dump retransmitted %d time%s" retries (if retries = 1 then "" else "s")
  | Watchdog_expired { steps } -> Printf.sprintf "watchdog expired after %d steps" steps
  | Trial_retry { trial; attempt; reason } ->
    Printf.sprintf "trial %d attempt %d failed (%s) — retrying from a fresh boot" trial attempt
      reason
  | Trial_quarantined { trial; attempts; reason } ->
    Printf.sprintf "trial %d quarantined after %d attempt%s (%s)" trial attempts
      (if attempts = 1 then "" else "s")
      reason
  | Resume_skip { trial } -> Printf.sprintf "trial %d recovered from journal (resume skip)" trial
