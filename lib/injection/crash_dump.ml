(* Structured crash dump, captured at classification time.

   The paper's §5 case studies were produced by reading free-text oops dumps
   by hand; this module captures the same evidence as data — faulting PC and
   symbol, the register file, a stack window and call-trace walk, the last
   tracer events, fault-model and activation metadata — so that [Triage] can
   bucket crashes mechanically and [Oops.render] becomes a pretty-printer
   over the dump instead of re-deriving machine state ad hoc.

   Every extraction is total: the machine at a crash point can be arbitrarily
   wild (unmapped SP, corrupted symbol table, PC outside the text section),
   and a dump that cannot be fully populated still renders. *)

module System = Ferrite_kernel.System
module Abi = Ferrite_kernel.Abi
module Image = Ferrite_kir.Image
module Word = Ferrite_machine.Word
module CExn = Ferrite_cisc.Exn
module RExn = Ferrite_risc.Exn

let hex = Word.to_hex

type t = {
  cd_arch : Image.arch;
  cd_banner : string;  (* the oops headline, e.g. "Unable to handle ..." *)
  cd_fault : string;  (* raw machine fault label *)
  cd_cause : Crash_cause.t option;  (* Table 3/4 category, when classifiable *)
  cd_pc : int;
  cd_function : string;  (* "fn+0x<off>" or "(no symbol)" *)
  cd_sp : int;
  cd_sp_in_stack : bool;  (* SP inside some task's kernel stack *)
  cd_stack_repeat : bool;  (* Fig. 7 repeating return-address signature *)
  cd_registers : (string * int) list;  (* full register file, in render order *)
  cd_stack_words : int option list;  (* words at SP; [None] = unreadable *)
  cd_backtrace : (int * string) list;  (* text-section words from the stack/LR walk *)
  cd_code : string list;  (* disassembly window around the PC, pre-rendered *)
  cd_events : string list;  (* last-N tracer events, pre-rendered *)
  cd_model : string;  (* fault-model tag *)
  cd_target : Target.t option;  (* the injection target, when known *)
  cd_activation_cycle : int option;
  cd_latency : int;  (* cycles-to-crash (0 when captured outside a trial) *)
}

(* ---------- banner ----------

   This is the oops headline. Unlike the historical [Oops.banner], the
   panic-code read is guarded: an image without the [panic_code] global
   (stripped or ablated builds) renders the generic wording instead of
   raising from inside the crash path. *)

let panic_code sys = try System.global sys "panic_code" with _ -> 0

let banner sys fault =
  match fault with
  | System.Cisc_fault e ->
    (match e with
    | CExn.Page_fault { addr; _ } when Ferrite_machine.Layout.is_null_deref addr ->
      Printf.sprintf "Unable to handle kernel NULL pointer dereference at virtual address %s"
        (hex addr)
    | CExn.Page_fault { addr; _ } ->
      Printf.sprintf "Unable to handle kernel paging request at virtual address %s" (hex addr)
    | CExn.Invalid_opcode ->
      let code = panic_code sys in
      if code <> 0 then Printf.sprintf "Kernel panic: code %d" code
      else "invalid operand: 0000"
    | CExn.General_protection _ -> "general protection fault: 0000"
    | CExn.Invalid_tss -> "invalid TSS: 0000"
    | CExn.Divide_error -> "divide error: 0000"
    | CExn.Bounds -> "bounds: 0000"
    | CExn.Double_fault -> "double fault (no dump)"
    | CExn.Software_panic { message } -> "Kernel panic: " ^ message
    | CExn.Debug_trap | CExn.Breakpoint_trap -> "unexpected trap")
  | System.Risc_fault e ->
    (match e with
    | RExn.Dsi { addr; _ } | RExn.Isi { addr } ->
      Printf.sprintf "kernel access of bad area at %s" (hex addr)
    | RExn.Program_illegal -> "kernel tried to execute an illegal instruction"
    | RExn.Program_trap ->
      let code = panic_code sys in
      if code <> 0 then Printf.sprintf "Kernel panic!!! code %d" code else "kernel BUG"
    | RExn.Alignment { addr } -> Printf.sprintf "alignment exception at %s" (hex addr)
    | RExn.Machine_check _ -> "machine check in kernel mode"
    | RExn.Program_privileged -> "bad trap: privileged instruction"
    | RExn.Unexpected_syscall -> "bad trap: unexpected system call"
    | RExn.Software_panic { message } -> "checkstop: " ^ message)

let fault_label = function
  | System.Cisc_fault e -> Ferrite_cisc.Exn.to_string e
  | System.Risc_fault e -> Ferrite_risc.Exn.to_string e

(* ---------- extraction helpers (each total) ---------- *)

let symbolize sys pc =
  match Image.function_at sys.System.image pc with
  | Some f -> Printf.sprintf "%s+0x%x" f.Image.fs_name (pc - f.Image.fs_addr)
  | None -> "(no symbol)"
  | exception _ -> "(no symbol)"

let peek_word sys addr = try Some (System.peek32 sys addr) with _ -> None

let registers sys =
  match sys.System.cpu with
  | System.Ccpu c ->
    let r i = c.Ferrite_cisc.Cpu.regs.(i) in
    [
      ("eax", r 0); ("ecx", r 1); ("edx", r 2); ("ebx", r 3);
      ("esp", r 4); ("ebp", r 5); ("esi", r 6); ("edi", r 7);
      ("eip", c.Ferrite_cisc.Cpu.eip); ("eflags", c.Ferrite_cisc.Cpu.eflags);
      ("cr2", c.Ferrite_cisc.Cpu.cr2);
    ]
  | System.Rcpu c ->
    List.init 32 (fun i -> (Printf.sprintf "r%d" i, c.Ferrite_risc.Cpu.gpr.(i)))
    @ [
        ("pc", c.Ferrite_risc.Cpu.pc); ("lr", c.Ferrite_risc.Cpu.lr);
        ("ctr", c.Ferrite_risc.Cpu.ctr); ("cr", c.Ferrite_risc.Cpu.cr);
      ]

let stack_words ?(words = 16) sys =
  let sp = System.sp sys in
  List.init words (fun i -> peek_word sys (sp + (4 * i)))

let sp_in_some_stack sys =
  let sp = System.sp sys in
  let rec scan i =
    i < Abi.ntasks
    &&
    let lo, hi = System.task_stack_range sys i in
    (sp >= lo && sp < hi) || scan (i + 1)
  in
  try scan 0 with _ -> false

(* Figure 7's off-line heuristic: a runaway stack leaves a short repeating
   pattern of return addresses. We look for a period-<=4 repetition of
   text-section words over a window above the stack pointer. *)
let stack_repeat_signature sys =
  let sp = System.sp sys in
  let window = 32 in
  let word i = peek_word sys (sp + (4 * i)) in
  let text_base = sys.System.image.Image.img_text_base in
  let text_end = text_base + Image.text_size sys.System.image in
  let is_text w = w >= text_base && w < text_end in
  let rec try_period p =
    if p > 4 then false
    else begin
      let matches = ref 0 in
      let total = ref 0 in
      for i = 0 to window - p - 1 do
        match (word i, word (i + p)) with
        | Some a, Some b when is_text a ->
          incr total;
          if a = b then incr matches
        | _ -> ()
      done;
      (!total >= 6 && !matches * 10 >= !total * 8) || try_period (p + 1)
    end
  in
  try_period 1

(* The call-trace walk of a real oops: scan the words above SP (seeded with
   the link register on RISC) and keep those that point into the text
   section — likely return addresses. *)
let backtrace ?(window = 64) ?(limit = 8) sys =
  let text_base = sys.System.image.Image.img_text_base in
  let text_end = text_base + Image.text_size sys.System.image in
  let is_text w = w >= text_base && w < text_end in
  let sp = System.sp sys in
  let seed =
    match sys.System.cpu with
    | System.Rcpu c -> if is_text c.Ferrite_risc.Cpu.lr then [ c.Ferrite_risc.Cpu.lr ] else []
    | System.Ccpu _ -> []
  in
  let rec walk i acc =
    if i >= window || List.length acc >= limit then List.rev acc
    else
      match peek_word sys (sp + (4 * i)) with
      | Some w when is_text w -> walk (i + 1) (w :: acc)
      | _ -> walk (i + 1) acc
  in
  let frames = walk 0 (List.rev seed) in
  List.map (fun a -> (a, symbolize sys a)) frames

let code_window_lines sys =
  let pc = System.pc sys in
  let header = Printf.sprintf "EIP/PC is at %s" (symbolize sys pc) in
  let body =
    match sys.System.arch with
    | Image.Cisc ->
      (match Ferrite_cisc.Disasm.window ~count:4 ~mem:sys.System.mem pc with
      | lines -> List.map (fun (a, _, text) -> Printf.sprintf "  %s: %s" (hex a) text) lines
      | exception _ -> [ "  (code unreadable)" ])
    | Image.Risc ->
      (match Ferrite_risc.Disasm.window ~count:4 ~mem:sys.System.mem pc with
      | lines -> List.map (fun (a, text) -> Printf.sprintf "  %s: %s" (hex a) text) lines
      | exception _ -> [ "  (code unreadable)" ])
  in
  header :: body

(* ---------- capture ---------- *)

let guard ~default f = try f () with _ -> default

let capture ?(events = []) ?target ?activation_cycle ?(latency = 0)
    sys fault =
  {
    cd_arch = sys.System.arch;
    cd_banner = guard ~default:"(banner unavailable)" (fun () -> banner sys fault);
    cd_fault = guard ~default:"(fault)" (fun () -> fault_label fault);
    cd_cause = guard ~default:None (fun () -> Crash_cause.classify sys fault);
    cd_pc = guard ~default:0 (fun () -> System.pc sys);
    cd_function = guard ~default:"(no symbol)" (fun () -> symbolize sys (System.pc sys));
    cd_sp = guard ~default:0 (fun () -> System.sp sys);
    cd_sp_in_stack = guard ~default:true (fun () -> sp_in_some_stack sys);
    cd_stack_repeat = guard ~default:false (fun () -> stack_repeat_signature sys);
    cd_registers = guard ~default:[] (fun () -> registers sys);
    cd_stack_words = guard ~default:[] (fun () -> stack_words sys);
    cd_backtrace = guard ~default:[] (fun () -> backtrace sys);
    cd_code = guard ~default:[ "(code unreadable)" ] (fun () -> code_window_lines sys);
    cd_events = events;
    cd_model = Fault_model.tag Fault_model.Single_bit_transient;
    cd_target = target;
    cd_activation_cycle = activation_cycle;
    cd_latency = latency;
  }
