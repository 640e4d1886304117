(* Scenario tests reproducing the paper's worked examples:
   Figure 8  (P4 stack error in kupdate's task pointer),
   Figure 9  (G4 stack error in kjournald),
   Figure 15 (G4 code error: mflr -> lhax),
   and the crash-dump ("oops") machinery used to analyse them. *)

open Ferrite_kernel
open Ferrite_injection
module Image = Ferrite_kir.Image
module Rng = Ferrite_machine.Rng
module Workload = Ferrite_workload.Workload
module Runner = Ferrite_workload.Runner

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run_target sys target ~seed ~ops =
  let rng = Rng.create ~seed in
  let wl = Workload.mix ~ops () in
  let runner = Runner.create sys ~ops:(wl.Workload.wl_ops rng) in
  let collector = Collector.create ~loss_rate:0.0 ~seed:3L () in
  Engine.run_one ~sys ~runner ~target ~collector Engine.default_config

(* --- Figure 8: stack errors in the kupdate task (P4) -------------------- *)

let test_figure8_kupdate_stack_errors () =
  (* kupdate is task 1; inject into the live words of its sleeping stack.
     Across a seeded batch, some errors must manifest as invalid memory
     accesses (the Figure 8 outcome), and the faults must be attributable. *)
  let image = Boot.build_image Image.Cisc in
  let crashes = ref 0 and outcomes = ref 0 in
  for i = 0 to 39 do
    let sys = Boot.boot ~image Image.Cisc in
    let sp = System.task_field sys 1 "sp" in
    let addr = (sp + 4 * (i mod 12)) land lnot 3 in
    let target = Target.Stack_target { task = 1; addr; bit = (i * 7) mod 32 } in
    let record = run_target sys target ~seed:(Int64.of_int (100 + i)) ~ops:10 in
    incr outcomes;
    match record.Outcome.r_outcome with
    | Outcome.Known_crash { ci_cause = Crash_cause.P4 c; _ } ->
      incr crashes;
      check_bool "P4 stack crash kinds are Table 3 categories" true
        (match c with
        | Crash_cause.Null_pointer | Crash_cause.Bad_paging | Crash_cause.Invalid_instruction
        | Crash_cause.General_protection | Crash_cause.Kernel_panic | Crash_cause.Invalid_tss
        | Crash_cause.Divide_error | Crash_cause.Bounds_trap -> true)
    | _ -> ()
  done;
  check_int "ran the batch" 40 !outcomes;
  check_bool "some kupdate-stack errors crash (Figure 8)" true (!crashes >= 3)

(* --- Figure 9: stack errors in the kjournald task (G4) ------------------ *)

let test_figure9_kjournald_stack_errors () =
  let image = Boot.build_image Image.Risc in
  let crashes = ref 0 and stack_or_area = ref 0 in
  for i = 0 to 39 do
    let sys = Boot.boot ~image Image.Risc in
    let sp = System.task_field sys 2 "sp" in
    let addr = (sp + 4 * (i mod 12)) land lnot 3 in
    let target = Target.Stack_target { task = 2; addr; bit = (i * 5) mod 32 } in
    let record = run_target sys target ~seed:(Int64.of_int (200 + i)) ~ops:10 in
    match record.Outcome.r_outcome with
    | Outcome.Known_crash { ci_cause = Crash_cause.G4 c; _ } ->
      incr crashes;
      (match c with
      | Crash_cause.Bad_area | Crash_cause.Stack_overflow -> incr stack_or_area
      | _ -> ())
    | _ -> ()
  done;
  check_bool "some kjournald-stack errors crash (Figure 9)" true (!crashes >= 3);
  check_bool "dominated by bad area / stack overflow" true (!stack_or_area * 2 >= !crashes)

(* --- Figure 15: mflr -> lhax in a kernel prologue (G4) ------------------- *)

let find_word sys fn w =
  let f = Image.find_func sys.System.image fn in
  let rec go addr =
    if addr >= f.Image.fs_addr + f.Image.fs_size then None
    else if System.peek32 sys addr = w then Some addr
    else go (addr + 4)
  in
  go f.Image.fs_addr

let test_figure15_mflr_to_lhax () =
  let sys = Boot.boot Image.Risc in
  (* the paper's exact words: mflr r0 = 0x7C0802A6; bit 3 makes lhax r0,r8,r0 *)
  match find_word sys "sys_read" 0x7C0802A6 with
  | None -> Alcotest.fail "sys_read has no mflr r0 in its prologue"
  | Some addr ->
    (* code flips use the same arch-aware addressing as word flips: bit 3 is
       the instruction word's bit 3 on both architectures *)
    let target = Target.Code_target { fn = "sys_read"; addr; bit = 3 } in
    let record = run_target sys target ~seed:555L ~ops:14 in
    check_bool "the flip was reached" true record.Outcome.r_activated;
    (* verify the decoded corruption is exactly lhax r0,r8,r0 *)
    (match Ferrite_risc.Decode.word (System.peek32 sys addr) with
    | Ferrite_risc.Insn.Load_idx ({ algebraic = true; _ }, 0, 8, 0) -> ()
    | _ -> Alcotest.fail "corrupted word is not lhax r0,r8,r0");
    (match record.Outcome.r_outcome with
    | Outcome.Known_crash { ci_cause = Crash_cause.G4 c; _ } ->
      check_bool "crash in a Table 4 category" true
        (match c with
        | Crash_cause.Bad_area | Crash_cause.Stack_overflow | Crash_cause.Illegal_instruction
        | Crash_cause.Panic -> true
        | _ -> false)
    | Outcome.Hang | Outcome.Unknown_crash -> ()
    | o -> Alcotest.failf "unexpected outcome %s" (Outcome.outcome_label o))

(* --- oops rendering ------------------------------------------------------- *)

let force_fault arch =
  let sys = Boot.boot arch in
  let s = System.symbol sys "mailbox" in
  (* corrupt the syscall table entry for getpid to a small bogus pointer so
     the dispatcher's indirect call jumps to NULL-land *)
  let table = System.symbol sys "syscall_table" in
  System.poke32 sys table 0x00000010;
  System.poke32 sys (s + 4) Abi.sys_getpid;
  System.poke32 sys s Abi.req_pending;
  let rec go n =
    if n = 0 then Alcotest.fail "no fault"
    else match System.step sys with System.Faulted f -> (sys, f) | _ -> go (n - 1)
  in
  go 2_000_000

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_oops_p4 () =
  let sys, fault = force_fault Image.Cisc in
  let text = Oops.render sys fault in
  check_bool "banner style" true
    (contains text "Unable to handle kernel"
    || contains text "invalid operand"
    || contains text "general protection");
  check_bool "registers shown" true (contains text "eip: ");
  check_bool "symbolised" true (contains text "EIP/PC is at");
  check_bool "stack dump" true (contains text "Stack:")

let test_oops_g4 () =
  let sys, fault = force_fault Image.Risc in
  let text = Oops.render sys fault in
  check_bool "banner style" true
    (contains text "bad area" || contains text "illegal instruction");
  check_bool "registers shown" true (contains text "r31:" || contains text "r0 :");
  check_bool "pc line" true (contains text "pc : ")

let test_oops_banner_null_vs_paging () =
  let sys = Boot.boot Image.Cisc in
  let null_fault =
    System.Cisc_fault (Ferrite_cisc.Exn.Page_fault { addr = 0x8; write = false; fetch = false })
  in
  check_bool "NULL wording" true (contains (Oops.banner sys null_fault) "NULL pointer");
  let paging_fault =
    System.Cisc_fault
      (Ferrite_cisc.Exn.Page_fault { addr = 0x170FC2A5; write = false; fetch = false })
  in
  let b = Oops.banner sys paging_fault in
  check_bool "paging wording (the Figure 7 message)" true
    (contains b "paging request at virtual address 170fc2a5")

let test_banner_survives_stripped_panic_code () =
  (* regression: the banner used to read the [panic_code] global unguarded,
     so an image without that symbol (stripped or ablated builds) raised
     Invalid_argument from inside the crash path instead of rendering. *)
  let sys = Boot.boot Image.Cisc in
  Hashtbl.remove sys.System.image.Image.img_symtab "panic_code";
  (match Oops.banner sys (System.Cisc_fault Ferrite_cisc.Exn.Invalid_opcode) with
  | b -> check_bool "generic CISC wording" true (contains b "invalid operand")
  | exception e -> Alcotest.failf "CISC banner raised %s" (Printexc.to_string e));
  let rsys = Boot.boot Image.Risc in
  Hashtbl.remove rsys.System.image.Image.img_symtab "panic_code";
  (match Oops.banner rsys (System.Risc_fault Ferrite_risc.Exn.Program_trap) with
  | b -> check_bool "generic RISC wording" true (contains b "kernel BUG")
  | exception e -> Alcotest.failf "RISC banner raised %s" (Printexc.to_string e))

let test_stack_dump_golden_format () =
  (* golden format: one space before every word, a newline after every row —
     including a trailing partial one. The pre-fix renderer doubled the
     leading space on full rows and left partial rows without a newline. *)
  let sys = Boot.boot Image.Cisc in
  let sp = 0xC0802000 in
  (match sys.System.cpu with
  | System.Ccpu c -> c.Ferrite_cisc.Cpu.regs.(Ferrite_cisc.Cpu.esp) <- sp
  | _ -> assert false);
  for i = 0 to 5 do
    System.poke32 sys (sp + (4 * i)) (0xC0000000 + i)
  done;
  Alcotest.(check string) "six-word dump (partial second row)"
    "Stack: (esp/r1 = c0802000)\n\
    \ c0000000 c0000001 c0000002 c0000003\n\
    \ c0000004 c0000005\n"
    (Oops.stack_dump ~words:6 sys)

let test_stack_overflow_signature () =
  let sys = Boot.boot Image.Cisc in
  (* fabricate the Figure 7 pattern: a repeating 4-word cycle of text
     addresses above ESP *)
  (match sys.System.cpu with
  | System.Ccpu c ->
    let sp = 0xC0802000 in
    c.Ferrite_cisc.Cpu.regs.(Ferrite_cisc.Cpu.esp) <- sp;
    let text = sys.System.image.Image.img_text_base in
    for i = 0 to 31 do
      System.poke32 sys (sp + (4 * i)) (text + 0x100 + (16 * (i mod 4)))
    done;
    check_bool "signature detected" true (Oops.stack_overflow_signature sys);
    (* scramble: no repetition -> no signature *)
    for i = 0 to 31 do
      System.poke32 sys (sp + (4 * i)) (text + (i * 52))
    done;
    check_bool "no false positive" false (Oops.stack_overflow_signature sys)
  | _ -> assert false)

let () =
  Alcotest.run "ferrite_scenarios"
    [
      ( "paper figures",
        [
          Alcotest.test_case "Figure 8: kupdate stack (P4)" `Quick test_figure8_kupdate_stack_errors;
          Alcotest.test_case "Figure 9: kjournald stack (G4)" `Quick test_figure9_kjournald_stack_errors;
          Alcotest.test_case "Figure 15: mflr->lhax (G4)" `Quick test_figure15_mflr_to_lhax;
        ] );
      ( "oops",
        [
          Alcotest.test_case "P4 oops" `Quick test_oops_p4;
          Alcotest.test_case "G4 oops" `Quick test_oops_g4;
          Alcotest.test_case "NULL vs paging banner" `Quick test_oops_banner_null_vs_paging;
          Alcotest.test_case "banner without panic_code symbol" `Quick
            test_banner_survives_stripped_panic_code;
          Alcotest.test_case "stack dump golden format" `Quick test_stack_dump_golden_format;
          Alcotest.test_case "Fig. 7 stack signature" `Quick test_stack_overflow_signature;
        ] );
    ]
