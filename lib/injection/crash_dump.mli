(** Structured crash dump, captured at classification time (the machine is
    still at the crash point), with every extraction guarded so capture is
    total even over wild machine states. [Oops.render] pretty-prints these;
    {!Triage.classify} buckets them into the paper's §5 root-cause families. *)

type t = {
  cd_arch : Ferrite_kir.Image.arch;
  cd_banner : string;  (** the oops headline, e.g. ["Unable to handle ..."] *)
  cd_fault : string;  (** raw machine fault label *)
  cd_cause : Crash_cause.t option;  (** Table 3/4 category, when classifiable *)
  cd_pc : int;
  cd_function : string;  (** ["fn+0x<off>"] or ["(no symbol)"] *)
  cd_sp : int;
  cd_sp_in_stack : bool;  (** SP inside some task's kernel stack *)
  cd_stack_repeat : bool;  (** Fig. 7 repeating return-address signature *)
  cd_registers : (string * int) list;  (** full register file, in render order *)
  cd_stack_words : int option list;  (** words at SP; [None] = unreadable *)
  cd_backtrace : (int * string) list;
      (** text-section words from the stack/LR walk, with symbols *)
  cd_code : string list;  (** disassembly window around the PC, pre-rendered *)
  cd_events : string list;  (** last-N tracer events, pre-rendered *)
  cd_model : string;  (** fault-model tag *)
  cd_target : Target.t option;  (** the injection target, when known *)
  cd_activation_cycle : int option;
  cd_latency : int;  (** cycles-to-crash (0 when captured outside a trial) *)
}

val capture :
  ?events:string list ->
  ?target:Target.t ->
  ?activation_cycle:int ->
  ?latency:int ->
  Ferrite_kernel.System.t ->
  Ferrite_kernel.System.fault ->
  t
(** Capture a dump from the live machine. Never raises: unreadable state
    degrades to placeholder fields. *)

val banner : Ferrite_kernel.System.t -> Ferrite_kernel.System.fault -> string
(** The oops headline. The panic-code read is guarded: images without the
    [panic_code] global render the generic wording instead of raising. *)

val symbolize : Ferrite_kernel.System.t -> int -> string

val registers : Ferrite_kernel.System.t -> (string * int) list
(** The full register file in render order (arch-dependent names). *)

val code_window_lines : Ferrite_kernel.System.t -> string list
val stack_repeat_signature : Ferrite_kernel.System.t -> bool
val sp_in_some_stack : Ferrite_kernel.System.t -> bool
val peek_word : Ferrite_kernel.System.t -> int -> int option

val stack_words : ?words:int -> Ferrite_kernel.System.t -> int option list
(** The [words] (default 16) stack words at SP; [None] per unreadable word. *)
