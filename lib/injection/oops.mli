(** Linux-style crash reports ("oops" text).

    The paper's crash handlers dump processor and memory state and ship it to
    the remote collector for off-line analysis (§3.1). The machine-state
    extraction lives in {!Crash_dump}; this module is the pretty-printer:
    the banner line the kernel would print, the register file, a disassembly
    window around the faulting PC, a raw stack dump, and the
    repeated-return-address heuristic used in Figure 7 to recognise stack
    overflows on the P4. *)

val banner : Ferrite_kernel.System.t -> Ferrite_kernel.System.fault -> string
(** The one-line report, e.g.
    ["Unable to handle kernel NULL pointer dereference at virtual address 00000008"]
    or ["kernel access of bad area at 0000004d"]. Total: an image without the
    [panic_code] global renders the generic wording instead of raising. *)

val stack_dump : ?words:int -> Ferrite_kernel.System.t -> string
(** Raw words above the stack pointer (default 16), four per row; every row
    (including a trailing partial one) is newline-terminated. *)

val stack_overflow_signature : Ferrite_kernel.System.t -> bool
(** Figure 7's off-line heuristic: does the crash-time stack show the
    repeating return-address pattern of a runaway stack? *)

val render_dump : Crash_dump.t -> string
(** Pretty-print an already-captured structured dump: banner, registers,
    code window, stack dump, call trace, last events. *)

val render : Ferrite_kernel.System.t -> Ferrite_kernel.System.fault -> string
(** [render sys fault = render_dump (Crash_dump.capture sys fault)]. *)
