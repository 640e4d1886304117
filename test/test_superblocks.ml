(* The superblock translation layer must be a pure acceleration: outside the
   injection window straight-line code runs as flattened micro-op arrays, but
   every observable — records, telemetry, event traces, store bytes — must be
   bit-identical to the precise per-step interpreter. A differential qcheck
   property replays whole campaigns with superblocks disabled
   ([Memory.set_superblocks_default false]) across fault models and executor
   widths; unit tests pin each precise-fallback edge (self-modifying stores,
   mid-block exceptions, armed breakpoints, block-boundary branches) and the
   overflow/monotonicity contract of the diagnostic counters. *)

open Ferrite_machine
module Campaign = Ferrite_injection.Campaign
module Executor = Ferrite_injection.Executor
module Engine = Ferrite_injection.Engine
module Target = Ferrite_injection.Target
module Image = Ferrite_kir.Image
module Boot = Ferrite_kernel.Boot
module System = Ferrite_kernel.System

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let code_base = 0xC0100000
let stop_addr = 0xFFFF0000

(* --- differential pairs: one CPU translated, one precise ------------------ *)

(* Both CPUs see the same memory image and are driven through [Cpu.run]; only
   [sb_enabled] differs. Every architecturally visible observable must agree:
   result, retired count, pc, registers, and the counter stamps. *)

(* A memory whose CPUs run superblocks ([sb]) or step every instruction. *)
let code_memory ~sb =
  Memory.set_superblocks_default sb;
  let mem =
    Fun.protect ~finally:(fun () -> Memory.set_superblocks_default true) Memory.create
  in
  Memory.map mem ~addr:code_base ~size:0x2000 ~perm:Memory.perm_rwx;
  mem

let risc_pair setup =
  let make sb =
    let mem = code_memory ~sb in
    let cpu = Ferrite_risc.Cpu.create ~mem ~stop_addr in
    setup mem cpu;
    cpu
  in
  (make true, make false)

let cisc_pair setup =
  let make sb =
    let mem = code_memory ~sb in
    let cpu = Ferrite_cisc.Cpu.create ~mem ~stop_addr in
    setup mem cpu;
    cpu
  in
  (make true, make false)

(* [Cpu.run] as a [(retired, result)] pair, so the two sides compare whole *)
let risc_run (cpu : Ferrite_risc.Cpu.t) n =
  let r = Ferrite_risc.Cpu.run cpu ~max_steps:n in
  (Ferrite_risc.Cpu.run_retired cpu, r)

let cisc_run (cpu : Ferrite_cisc.Cpu.t) n =
  let r = Ferrite_cisc.Cpu.run cpu ~max_steps:n in
  (Ferrite_cisc.Cpu.run_retired cpu, r)

let sb_insns (cs : Cache_stats.t) = cs.Cache_stats.cs_sb_insns
let sb_blocks (cs : Cache_stats.t) = cs.Cache_stats.cs_sb_blocks

let check_risc_agree msg (a : Ferrite_risc.Cpu.t) (b : Ferrite_risc.Cpu.t) =
  check_int (msg ^ ": pc") b.Ferrite_risc.Cpu.pc a.Ferrite_risc.Cpu.pc;
  for i = 0 to 31 do
    check_int
      (Printf.sprintf "%s: r%d" msg i)
      b.Ferrite_risc.Cpu.gpr.(i) a.Ferrite_risc.Cpu.gpr.(i)
  done;
  let ca = Counters.stamp a.Ferrite_risc.Cpu.counters in
  let cb = Counters.stamp b.Ferrite_risc.Cpu.counters in
  Alcotest.(check (pair int int)) (msg ^ ": counters") cb ca

let check_cisc_agree msg (a : Ferrite_cisc.Cpu.t) (b : Ferrite_cisc.Cpu.t) =
  check_int (msg ^ ": eip") b.Ferrite_cisc.Cpu.eip a.Ferrite_cisc.Cpu.eip;
  for i = 0 to 7 do
    check_int
      (Printf.sprintf "%s: reg%d" msg i)
      b.Ferrite_cisc.Cpu.regs.(i) a.Ferrite_cisc.Cpu.regs.(i)
  done;
  let ca = Counters.stamp a.Ferrite_cisc.Cpu.counters in
  let cb = Counters.stamp b.Ferrite_cisc.Cpu.counters in
  Alcotest.(check (pair int int)) (msg ^ ": counters") cb ca

(* --- fallback edge: self-modifying code mid-block ------------------------- *)

(* A store inside a superblock overwrites a later instruction of the same
   block. The store-generation check must abandon the stale block after the
   store retires, so the rewritten bytes — not the flattened copy — execute. *)

let test_risc_smc_invalidates () =
  let setup mem (cpu : Ferrite_risc.Cpu.t) =
    Memory.poke32_be mem code_base 0x38600005;
    (* li r3, 5 *)
    Memory.poke32_be mem (code_base + 4) 0x90A60008;
    (* stw r5, 8(r6): overwrites the li below *)
    Memory.poke32_be mem (code_base + 8) 0x38800001;
    (* li r4, 1 *)
    cpu.Ferrite_risc.Cpu.gpr.(5) <- 0x38800009 (* li r4, 9 *);
    cpu.Ferrite_risc.Cpu.gpr.(6) <- code_base;
    cpu.Ferrite_risc.Cpu.pc <- code_base
  in
  let sb, precise = risc_pair setup in
  let module Cpu = Ferrite_risc.Cpu in
  let ra = risc_run sb 3 in
  let rb = risc_run precise 3 in
  check_bool "same run result" true (ra = rb);
  check_int "rewritten instruction executed, not the stale block" 9
    sb.Cpu.gpr.(4);
  check_risc_agree "smc" sb precise;
  check_bool "translated execution actually ran" true (sb_insns (Cpu.cache_stats sb) > 0)

let test_cisc_smc_invalidates () =
  let setup mem (cpu : Ferrite_cisc.Cpu.t) =
    (* C7 05 disp32 imm32: mov dword [code_base+11], 0x22 — rewrites the
       immediate of the mov eax below, which sits in the same superblock *)
    Memory.poke8 mem code_base 0xC7;
    Memory.poke8 mem (code_base + 1) 0x05;
    Memory.poke32_le mem (code_base + 2) (code_base + 11);
    Memory.poke32_le mem (code_base + 6) 0x22;
    (* B8 imm32: mov eax, 0x11 *)
    Memory.poke8 mem (code_base + 10) 0xB8;
    Memory.poke32_le mem (code_base + 11) 0x11;
    cpu.Ferrite_cisc.Cpu.eip <- code_base
  in
  let sb, precise = cisc_pair setup in
  let module Cpu = Ferrite_cisc.Cpu in
  let ra = cisc_run sb 2 in
  let rb = cisc_run precise 2 in
  check_bool "same run result" true (ra = rb);
  check_int "rewritten immediate executed, not the stale block" 0x22
    sb.Cpu.regs.(Cpu.eax);
  check_cisc_agree "smc" sb precise

(* --- fallback edge: exception mid-block ----------------------------------- *)

(* A load faults in the middle of a superblock: the completed prefix must be
   charged, the faulting micro-op must not retire, and the exception must be
   delivered exactly as the precise interpreter delivers it. *)

let test_risc_midblock_exception () =
  let setup mem (cpu : Ferrite_risc.Cpu.t) =
    Memory.poke32_be mem code_base 0x38600005;
    (* li r3, 5 *)
    Memory.poke32_be mem (code_base + 4) 0x80860000;
    (* lwz r4, 0(r6) — r6 points into unmapped space *)
    cpu.Ferrite_risc.Cpu.gpr.(6) <- 0x7EAD0000;
    cpu.Ferrite_risc.Cpu.pc <- code_base
  in
  let sb, precise = risc_pair setup in
  let module Cpu = Ferrite_risc.Cpu in
  let ra = risc_run sb 10 in
  let rb = risc_run precise 10 in
  check_bool "same run result" true (ra = rb);
  (match ra with
  | 1, Cpu.Faulted (Ferrite_risc.Exn.Dsi _) -> ()
  | _ -> Alcotest.fail "expected (1, Faulted Dsi)");
  check_int "pc parked on the faulting instruction" (code_base + 4)
    sb.Cpu.pc;
  check_risc_agree "mid-block fault" sb precise

let test_cisc_midblock_exception () =
  let setup mem (cpu : Ferrite_cisc.Cpu.t) =
    (* B8 imm32: mov eax, 5 *)
    Memory.poke8 mem code_base 0xB8;
    Memory.poke32_le mem (code_base + 1) 0x5;
    (* 8B 05 disp32: mov eax, [0x7EAD0000] — unmapped *)
    Memory.poke8 mem (code_base + 5) 0x8B;
    Memory.poke8 mem (code_base + 6) 0x05;
    Memory.poke32_le mem (code_base + 7) 0x7EAD0000;
    cpu.Ferrite_cisc.Cpu.eip <- code_base
  in
  let sb, precise = cisc_pair setup in
  let module Cpu = Ferrite_cisc.Cpu in
  let ra = cisc_run sb 10 in
  let rb = cisc_run precise 10 in
  check_bool "same run result" true (ra = rb);
  (match ra with
  | 1, Cpu.Faulted (Ferrite_cisc.Exn.Page_fault _) -> ()
  | _ -> Alcotest.fail "expected (1, Faulted Page_fault)");
  check_int "eip parked on the faulting instruction" (code_base + 5)
    sb.Cpu.eip;
  check_cisc_agree "mid-block fault" sb precise

(* --- fallback edge: translation poisoned by a terminator entry ----------- *)

(* A terminator at a block entry is stepped precisely (a remembered
   zero-length block). When it poisons translation, the next pc must take
   the precise path and fault at its fetch, even though a block cached
   there on an earlier, clean pass is still valid. *)

let test_risc_poisoning_terminator () =
  let setup mem (cpu : Ferrite_risc.Cpu.t) =
    Memory.poke32_be mem code_base 0x7C600124;
    (* mtmsr r3 *)
    Memory.poke32_be mem (code_base + 4) 0x38800001;
    (* li r4, 1 *)
    Memory.poke32_be mem (code_base + 8) 0x38A00002;
    (* li r5, 2 *)
    cpu.Ferrite_risc.Cpu.gpr.(3) <- cpu.Ferrite_risc.Cpu.msr;
    cpu.Ferrite_risc.Cpu.pc <- code_base
  in
  let sb, precise = risc_pair setup in
  let module Cpu = Ferrite_risc.Cpu in
  check_bool "clean pass" true (risc_run sb 3 = risc_run precise 3);
  check_bool "a block is cached after the mtmsr" true
    (Cpu.cached_block_len sb (code_base + 4) > 0);
  let poison (cpu : Cpu.t) =
    cpu.Cpu.pc <- code_base;
    cpu.Cpu.gpr.(4) <- 0;
    cpu.Cpu.gpr.(3) <- cpu.Cpu.msr land lnot Cpu.msr_ir;
    risc_run cpu 3
  in
  let ra = poison sb in
  let rb = poison precise in
  check_bool "same run result" true (ra = rb);
  (match ra with
  | 1, Cpu.Faulted (Ferrite_risc.Exn.Machine_check _) -> ()
  | _ -> Alcotest.fail "expected (1, Faulted Machine_check)");
  check_int "the cached block did not run" 0 sb.Cpu.gpr.(4);
  check_risc_agree "poisoning terminator" sb precise

let test_cisc_poisoning_terminator () =
  let setup mem (cpu : Ferrite_cisc.Cpu.t) =
    List.iteri
      (fun i b -> Memory.poke8 mem (code_base + i) b)
      ([ 0x0F; 0x22; 0xD8 ] (* mov cr3, eax *)
      @ [ 0xB9; 1; 0; 0; 0 ] (* mov ecx, 1 *)
      @ [ 0xBA; 2; 0; 0; 0 ] (* mov edx, 2 *));
    cpu.Ferrite_cisc.Cpu.regs.(Ferrite_cisc.Cpu.eax) <- cpu.Ferrite_cisc.Cpu.cr3;
    cpu.Ferrite_cisc.Cpu.eip <- code_base
  in
  let sb, precise = cisc_pair setup in
  let module Cpu = Ferrite_cisc.Cpu in
  check_bool "clean pass" true (cisc_run sb 3 = cisc_run precise 3);
  check_bool "a block is cached after the mov to cr3" true
    (Cpu.cached_block_len sb (code_base + 3) > 0);
  let poison (cpu : Cpu.t) =
    cpu.Cpu.eip <- code_base;
    cpu.Cpu.regs.(Cpu.ecx) <- 0;
    cpu.Cpu.regs.(Cpu.eax) <- cpu.Cpu.cr3 lxor 0x1000;
    cisc_run cpu 3
  in
  let ra = poison sb in
  let rb = poison precise in
  check_bool "same run result" true (ra = rb);
  (match ra with
  | 1, Cpu.Faulted (Ferrite_cisc.Exn.Page_fault _) -> ()
  | _ -> Alcotest.fail "expected (1, Faulted Page_fault)");
  check_int "the cached block did not run" 0 sb.Cpu.regs.(Cpu.ecx);
  check_cisc_agree "poisoning terminator" sb precise

(* --- fallback edge: breakpoint armed over a cached block ------------------ *)

(* The injector arms an execute breakpoint between two runs. A superblock
   covering the armed pc is cached and valid; the next run must cut it just
   before the armed address, retiring only the micro-op ahead of it, and
   report [Hit_ibp] there without executing the armed instruction. *)

let test_risc_breakpoint_on_cached_block () =
  let setup mem (cpu : Ferrite_risc.Cpu.t) =
    Memory.poke32_be mem code_base 0x38600005;
    (* li r3, 5 *)
    Memory.poke32_be mem (code_base + 4) 0x38800001;
    (* li r4, 1 *)
    Memory.poke32_be mem (code_base + 8) 0x38A00002;
    (* li r5, 2 *)
    cpu.Ferrite_risc.Cpu.pc <- code_base
  in
  let sb, precise = risc_pair setup in
  let module Cpu = Ferrite_risc.Cpu in
  (* first run caches the block on the sb side *)
  check_bool "warm run" true (risc_run sb 3 = risc_run precise 3);
  let again (cpu : Cpu.t) =
    cpu.Cpu.pc <- code_base;
    cpu.Cpu.gpr.(4) <- 0;
    Debug_regs.set_instruction_bp cpu.Cpu.dr (code_base + 4);
    risc_run cpu 3
  in
  let ra = again sb in
  let rb = again precise in
  check_bool "same run result" true (ra = rb);
  (match ra with
  | 1, Cpu.Hit_ibp -> ()
  | _ -> Alcotest.fail "expected (1, Hit_ibp)");
  check_int "armed instruction did not execute" 0 sb.Cpu.gpr.(4);
  check_int "pc parked on the breakpoint" (code_base + 4) sb.Cpu.pc;
  check_risc_agree "armed bp" sb precise

(* --- breakpoints inside blocks: where the cut falls ----------------------- *)

(* One program per ISA: three straight-line ops, a direct jump the builder
   follows over two skipped ops, and three more ops at its target. After
   [prewarm], a valid block at the entry covers all seven executed ops. Each
   case arms breakpoints on both CPUs of a pair and checks that the
   translated run stops exactly where the precise one does. *)

let risc_bp_program mem (cpu : Ferrite_risc.Cpu.t) =
  List.iteri
    (fun i w -> Memory.poke32_be mem (code_base + (4 * i)) w)
    [
      0x38600001 (* +0  li r3, 1 *);
      0x38800002 (* +4  li r4, 2 *);
      0x38A00003 (* +8  li r5, 3 *);
      0x4800000C (* +12 b +12 *);
      0x38600063 (* +16 li r3, 99 — skipped *);
      0x38600062 (* +20 li r3, 98 — skipped *);
      0x38C00004 (* +24 li r6, 4 — the branch target *);
      0x38E00005 (* +28 li r7, 5 *);
      0x39000006 (* +32 li r8, 6 *);
    ];
  cpu.Ferrite_risc.Cpu.pc <- code_base

let cisc_bp_program mem (cpu : Ferrite_cisc.Cpu.t) =
  List.iteri
    (fun i b -> Memory.poke8 mem (code_base + i) b)
    ([ 0xB8; 1; 0; 0; 0 ] (* +0  mov eax, 1 *)
    @ [ 0xB9; 2; 0; 0; 0 ] (* +5  mov ecx, 2 *)
    @ [ 0xBA; 3; 0; 0; 0 ] (* +10 mov edx, 3 *)
    @ [ 0xEB; 5 ] (* +15 jmp +5 *)
    @ [ 0xB8; 99; 0; 0; 0 ] (* +17 mov eax, 99 — skipped *)
    @ [ 0xBB; 4; 0; 0; 0 ] (* +22 mov ebx, 4 — the branch target *)
    @ [ 0xBE; 5; 0; 0; 0 ] (* +27 mov esi, 5 *)
    @ [ 0xBF; 6; 0; 0; 0 ] (* +32 mov edi, 6 *)
    @ [ 0xF4 ] (* +37 hlt *));
  cpu.Ferrite_cisc.Cpu.eip <- code_base

(* Seven executed ops: enough to reach every breakpoint, never the end. *)
let bp_steps = 7

let risc_armed offsets =
  let ((sb, _) as pair) = risc_pair risc_bp_program in
  let arm (cpu : Ferrite_risc.Cpu.t) =
    Ferrite_risc.Cpu.prewarm cpu [ (code_base, 36) ];
    List.iter
      (fun o -> Debug_regs.set_instruction_bp cpu.Ferrite_risc.Cpu.dr (code_base + o))
      offsets
  in
  arm (fst pair);
  arm (snd pair);
  check_int "a warm block covers the entry" bp_steps
    (Ferrite_risc.Cpu.cached_block_len sb code_base);
  pair

let cisc_armed offsets =
  let ((sb, _) as pair) = cisc_pair cisc_bp_program in
  let arm (cpu : Ferrite_cisc.Cpu.t) =
    Ferrite_cisc.Cpu.prewarm cpu [ (code_base, 38) ];
    List.iter
      (fun o -> Debug_regs.set_instruction_bp cpu.Ferrite_cisc.Cpu.dr (code_base + o))
      offsets
  in
  arm (fst pair);
  arm (snd pair);
  check_int "a warm block covers the entry" bp_steps
    (Ferrite_cisc.Cpu.cached_block_len sb code_base);
  pair

let risc_hits msg (sb, precise) ~retired ~at =
  let ra = risc_run sb bp_steps in
  let rb = risc_run precise bp_steps in
  check_bool (msg ^ ": same run result") true (ra = rb);
  check_bool (msg ^ ": Hit_ibp") true (snd ra = Ferrite_risc.Cpu.Hit_ibp);
  check_int (msg ^ ": retired") retired (fst ra);
  check_int (msg ^ ": pc parked on the breakpoint") (code_base + at)
    sb.Ferrite_risc.Cpu.pc;
  check_risc_agree msg sb precise

let cisc_hits msg (sb, precise) ~retired ~at =
  let ra = cisc_run sb bp_steps in
  let rb = cisc_run precise bp_steps in
  check_bool (msg ^ ": same run result") true (ra = rb);
  check_bool (msg ^ ": Hit_ibp") true (snd ra = Ferrite_cisc.Cpu.Hit_ibp);
  check_int (msg ^ ": retired") retired (fst ra);
  check_int (msg ^ ": eip parked on the breakpoint") (code_base + at)
    sb.Ferrite_cisc.Cpu.eip;
  check_cisc_agree msg sb precise

let risc_sb_insns cpu = sb_insns (Ferrite_risc.Cpu.cache_stats cpu)
let cisc_sb_insns cpu = sb_insns (Ferrite_cisc.Cpu.cache_stats cpu)

let test_risc_bp_on_entry () =
  risc_hits "entry" (risc_armed [ 0 ]) ~retired:0 ~at:0

let test_cisc_bp_on_entry () =
  cisc_hits "entry" (cisc_armed [ 0 ]) ~retired:0 ~at:0

let test_risc_bp_mid_block () =
  let ((sb, _) as pair) = risc_armed [ 8 ] in
  risc_hits "micro-op 2" pair ~retired:2 ~at:8;
  check_int "the prefix ran in the block" 2 (risc_sb_insns sb)

let test_cisc_bp_mid_block () =
  let ((sb, _) as pair) = cisc_armed [ 10 ] in
  cisc_hits "micro-op 2" pair ~retired:2 ~at:10;
  check_int "the prefix ran in the block" 2 (cisc_sb_insns sb)

let test_risc_bp_on_branch_target () =
  let ((sb, _) as pair) = risc_armed [ 24 ] in
  risc_hits "branch target" pair ~retired:4 ~at:24;
  check_int "the jump ran in the block" 4 (risc_sb_insns sb)

let test_cisc_bp_on_branch_target () =
  let ((sb, _) as pair) = cisc_armed [ 22 ] in
  cisc_hits "branch target" pair ~retired:4 ~at:22;
  check_int "the jump ran in the block" 4 (cisc_sb_insns sb)

(* Two armed: the first reached stops the run; stepping over it (the
   injector's [skip_ibp] resume) and running on stops at the second. *)
let test_risc_two_bps () =
  let ((sb, precise) as pair) = risc_armed [ 28; 8 ] in
  risc_hits "first of two" pair ~retired:2 ~at:8;
  let sa = Ferrite_risc.Cpu.step ~skip_ibp:true sb in
  let sp = Ferrite_risc.Cpu.step ~skip_ibp:true precise in
  check_bool "skip step retires" true (sa = Ferrite_risc.Cpu.Retired && sa = sp);
  risc_hits "second of two" pair ~retired:2 ~at:28

let test_cisc_two_bps () =
  let ((sb, precise) as pair) = cisc_armed [ 27; 10 ] in
  cisc_hits "first of two" pair ~retired:2 ~at:10;
  let sa = Ferrite_cisc.Cpu.step ~skip_ibp:true sb in
  let sp = Ferrite_cisc.Cpu.step ~skip_ibp:true precise in
  check_bool "skip step retires" true (sa = Ferrite_cisc.Cpu.Retired && sa = sp);
  cisc_hits "second of two" pair ~retired:2 ~at:27

(* --- the block table ------------------------------------------------------ *)

(* A fresh table shares one empty block across its slots; it must never
   validate, for any pc — including its own sentinel pc — and a built block
   must not make other slots validate. *)
let test_unbuilt_slot_never_validates () =
  let sb, _ = risc_pair risc_bp_program in
  let probes = [ -1; 0; code_base; code_base + 4; code_base + 0x8000 ] in
  List.iter
    (fun pc ->
      check_int (Printf.sprintf "risc fresh 0x%x" pc) (-1)
        (Ferrite_risc.Cpu.cached_block_len sb pc))
    probes;
  ignore (risc_run sb 3);
  check_bool "risc built entry validates" true
    (Ferrite_risc.Cpu.cached_block_len sb code_base > 0);
  List.iter
    (fun pc ->
      check_int (Printf.sprintf "risc unbuilt 0x%x" pc) (-1)
        (Ferrite_risc.Cpu.cached_block_len sb pc))
    [ -1; 0; code_base + 4; code_base + 0x8000 ];
  let sb, _ = cisc_pair cisc_bp_program in
  List.iter
    (fun pc ->
      check_int (Printf.sprintf "cisc fresh 0x%x" pc) (-1)
        (Ferrite_cisc.Cpu.cached_block_len sb pc))
    probes;
  ignore (cisc_run sb 3);
  check_bool "cisc built entry validates" true
    (Ferrite_cisc.Cpu.cached_block_len sb code_base > 0);
  List.iter
    (fun pc ->
      check_int (Printf.sprintf "cisc unbuilt 0x%x" pc) (-1)
        (Ferrite_cisc.Cpu.cached_block_len sb pc))
    [ -1; 0; code_base + 5; code_base + 0x4000 ]

(* The table spans the whole kernel text, so nothing [prewarm] builds is
   evicted by a later build: every function start still validates after
   the pass (with a direct-mapped table smaller than the text, the tail of
   the text would evict the head). *)
let test_prewarmed_entries_validate () =
  List.iter
    (fun arch ->
      let sys = Boot.boot arch in
      System.prewarm sys;
      let len pc =
        match sys.System.cpu with
        | System.Ccpu c -> Ferrite_cisc.Cpu.cached_block_len c pc
        | System.Rcpu r -> Ferrite_risc.Cpu.cached_block_len r pc
      in
      Array.iter
        (fun (f : Image.func_sym) ->
          if f.Image.fs_size > 0 then
            check_bool
              (Printf.sprintf "%s %s validates" (System.arch_name sys) f.Image.fs_name)
              true
              (len f.Image.fs_addr >= 0))
        sys.System.image.Image.img_funcs)
    [ Image.Cisc; Image.Risc ]

(* A code trial flips a bit of kernel text and the next trial's restore
   rewinds it. The restore gives the page back the generation its snapshot
   recorded, so the blocks prewarmed before the snapshot validate again; and
   the flipped page's rebuilds go to the table's second way, so they do not
   evict those blocks meanwhile. A twin booted without superblocks takes the
   same steps, and every phase must leave both in the same state. *)
let test_translations_survive_restore () =
  List.iter
    (fun arch ->
      let boot sb =
        Memory.set_superblocks_default sb;
        let sys =
          Fun.protect
            ~finally:(fun () -> Memory.set_superblocks_default true)
            (fun () -> Boot.boot arch)
        in
        System.prewarm sys;
        (sys, System.snapshot sys)
      in
      let sys, snap = boot true and twin, twin_snap = boot false in
      let name = System.arch_name sys in
      let len pc =
        match sys.System.cpu with
        | System.Ccpu c -> Ferrite_cisc.Cpu.cached_block_len c pc
        | System.Rcpu r -> Ferrite_risc.Cpu.cached_block_len r pc
      in
      let blocks () = sb_blocks (System.cache_stats sys) in
      let regs (s : System.t) =
        match s.System.cpu with
        | System.Ccpu c -> Array.to_list c.Ferrite_cisc.Cpu.regs
        | System.Rcpu r -> Array.to_list r.Ferrite_risc.Cpu.gpr
      in
      let agree what =
        let msg s = Printf.sprintf "%s %s: %s" name what s in
        check_int (msg "pc") (System.pc twin) (System.pc sys);
        check_bool (msg "registers") true (regs twin = regs sys);
        check_bool (msg "counters") true
          (Counters.stamp (System.counters twin) = Counters.stamp (System.counters sys))
      in
      (* enter [pc] on both systems, running one micro-op there *)
      let enter pc =
        List.iter
          (fun s ->
            System.set_pc s pc;
            ignore (System.run s ~max_steps:1))
          [ sys; twin ]
      in
      let entry =
        (Array.to_list sys.System.image.Image.img_funcs
        |> List.find (fun (f : Image.func_sym) -> f.Image.fs_size > 0 && len f.Image.fs_addr > 0))
          .Image.fs_addr
      in
      let pristine = len entry in
      (* a bit of the entry's page, half a page away from the entry *)
      let flip = (entry land lnot 0xFFF) lor ((entry + 0x800) land 0xFFF) in
      List.iter (fun s -> Memory.flip_bit s.System.mem ~addr:flip ~bit:3) [ sys; twin ];
      check_int (name ^ ": the flip invalidates the block") (-1) (len entry);
      let b0 = blocks () in
      for _ = 1 to 4 do
        enter entry
      done;
      agree "after the flip";
      check_int (name ^ ": re-entering the flipped block builds it once") (b0 + 1) (blocks ());
      check_bool (name ^ ": the rebuilt block is cached") true (len entry >= 0);
      System.restore sys snap;
      System.restore twin twin_snap;
      let b1 = blocks () in
      for _ = 1 to 2 do
        enter entry
      done;
      agree "after the restore";
      check_int (name ^ ": running the restored entry builds nothing") b1 (blocks ());
      check_int (name ^ ": the pristine block is cached") pristine (len entry))
    [ Image.Cisc; Image.Risc ]

(* A terminator at a block entry is remembered as a zero-length block: the
   revisit steps it precisely without a rebuild, and stays exact. *)
let test_terminator_entry_remembered () =
  let setup mem (cpu : Ferrite_risc.Cpu.t) =
    Memory.poke32_be mem code_base 0x7C7043A6;
    (* mtsprg0 r3 — a terminator *)
    Memory.poke32_be mem (code_base + 4) 0x38800001;
    (* li r4, 1 *)
    cpu.Ferrite_risc.Cpu.pc <- code_base
  in
  let sb, precise = risc_pair setup in
  let module Cpu = Ferrite_risc.Cpu in
  check_bool "first visit" true (risc_run sb 2 = risc_run precise 2);
  check_int "terminator remembered" 0 (Cpu.cached_block_len sb code_base);
  let built = sb_blocks (Cpu.cache_stats sb) in
  sb.Cpu.pc <- code_base;
  precise.Cpu.pc <- code_base;
  check_bool "revisit" true (risc_run sb 2 = risc_run precise 2);
  let rebuilt = sb_blocks (Cpu.cache_stats sb) in
  check_int "no rebuild on the revisit" built rebuilt;
  check_risc_agree "terminator entry" sb precise;
  let setup mem (cpu : Ferrite_cisc.Cpu.t) =
    Memory.poke8 mem code_base 0xF4;
    (* hlt, interrupts enabled — a terminator *)
    Memory.poke8 mem (code_base + 1) 0xB8;
    Memory.poke32_le mem (code_base + 2) 1;
    (* mov eax, 1 *)
    cpu.Ferrite_cisc.Cpu.eip <- code_base
  in
  let sb, precise = cisc_pair setup in
  let module Cpu = Ferrite_cisc.Cpu in
  check_bool "first visit" true (cisc_run sb 2 = cisc_run precise 2);
  check_int "terminator remembered" 0 (Cpu.cached_block_len sb code_base);
  let built = sb_blocks (Cpu.cache_stats sb) in
  sb.Cpu.eip <- code_base;
  precise.Cpu.eip <- code_base;
  check_bool "revisit" true (cisc_run sb 2 = cisc_run precise 2);
  let rebuilt = sb_blocks (Cpu.cache_stats sb) in
  check_int "no rebuild on the revisit" built rebuilt;
  check_cisc_agree "terminator entry" sb precise

(* --- allocation-free hot path --------------------------------------------- *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* No watch, one, and all four armed, none hit: the per-access check the
   CPUs make on every load and store must not allocate. *)
let test_check_data_allocates_nothing () =
  List.iter
    (fun armed ->
      let d = Debug_regs.create () in
      for i = 1 to armed do
        Debug_regs.set_data_bp d ~addr:(0x10000 * i) ~len:4
      done;
      let words =
        minor_words (fun () ->
            for i = 1 to 10_000 do
              match Debug_regs.check_data d ~addr:(i land 0xFFF) ~len:4 ~is_write:false with
              | None -> ()
              | Some _ -> Alcotest.fail "unexpected hit"
            done)
      in
      check_int (Printf.sprintf "minor words, %d armed" armed) 0 (int_of_float words))
    [ 0; 1; 4 ]

(* A straight-line block of loads, stores and arithmetic, warmed by one run
   and then run again from its entry, with and without a (missed)
   watchpoint armed. *)
let test_risc_run_allocates_nothing () =
  let data = code_base + 0x1000 in
  let setup mem (cpu : Ferrite_risc.Cpu.t) =
    List.iteri
      (fun i w -> Memory.poke32_be mem (code_base + (4 * i)) w)
      [
        0x38600005 (* li r3, 5 *);
        0x80860000 (* lwz r4, 0(r6) *);
        0x90860004 (* stw r4, 4(r6) *);
        0x80A60008 (* lwz r5, 8(r6) *);
        0x90A6000C (* stw r5, 12(r6) *);
        0x88E60001 (* lbz r7, 1(r6) *);
        0x98E60010 (* stb r7, 16(r6) *);
        0x7D042A14 (* add r8, r4, r5 *);
      ];
    Memory.poke32_be mem data 0x11223344;
    Memory.poke32_be mem (data + 8) 0x01010101;
    cpu.Ferrite_risc.Cpu.gpr.(6) <- data;
    cpu.Ferrite_risc.Cpu.pc <- code_base
  in
  let sb, precise = risc_pair setup in
  let module Cpu = Ferrite_risc.Cpu in
  let again (cpu : Cpu.t) =
    cpu.Cpu.pc <- code_base;
    Cpu.run cpu ~max_steps:8
  in
  check_bool "warm run" true (again sb = again precise);
  check_int "one block" 8 (Cpu.cached_block_len sb code_base);
  check_int "unwatched run" 0 (int_of_float (minor_words (fun () -> ignore (again sb))));
  Debug_regs.set_data_bp sb.Cpu.dr ~addr:(data + 0x100) ~len:4;
  Debug_regs.set_data_bp precise.Cpu.dr ~addr:(data + 0x100) ~len:4;
  check_int "watched run" 0 (int_of_float (minor_words (fun () -> ignore (again sb))));
  ignore (again precise);
  ignore (again precise);
  check_risc_agree "load/store block" sb precise

let test_cisc_run_allocates_nothing () =
  let data = code_base + 0x1000 in
  let setup mem (cpu : Ferrite_cisc.Cpu.t) =
    List.iteri
      (fun i b -> Memory.poke8 mem (code_base + i) b)
      ([ 0x8B; 0x06 ] (* mov eax, [esi] *)
      @ [ 0x89; 0x46; 0x04 ] (* mov [esi+4], eax *)
      @ [ 0x8B; 0x4E; 0x08 ] (* mov ecx, [esi+8] *)
      @ [ 0x89; 0x4E; 0x0C ] (* mov [esi+12], ecx *)
      @ [ 0x01; 0xC8 ] (* add eax, ecx *)
      @ [ 0x0F; 0xB6; 0x56; 0x01 ] (* movzx edx, byte [esi+1] *)
      @ [ 0x88; 0x56; 0x10 ] (* mov [esi+16], dl *)
      @ [ 0xF4 ] (* hlt *));
    Memory.poke32_le mem data 0x11223344;
    Memory.poke32_le mem (data + 8) 0x01010101;
    cpu.Ferrite_cisc.Cpu.regs.(Ferrite_cisc.Cpu.esi) <- data;
    cpu.Ferrite_cisc.Cpu.eip <- code_base
  in
  let sb, precise = cisc_pair setup in
  let module Cpu = Ferrite_cisc.Cpu in
  let again (cpu : Cpu.t) =
    cpu.Cpu.eip <- code_base;
    Cpu.run cpu ~max_steps:7
  in
  check_bool "warm run" true (again sb = again precise);
  check_int "one block" 7 (Cpu.cached_block_len sb code_base);
  check_int "unwatched run" 0 (int_of_float (minor_words (fun () -> ignore (again sb))));
  Debug_regs.set_data_bp sb.Cpu.dr ~addr:(data + 0x100) ~len:4;
  Debug_regs.set_data_bp precise.Cpu.dr ~addr:(data + 0x100) ~len:4;
  check_int "watched run" 0 (int_of_float (minor_words (fun () -> ignore (again sb))));
  ignore (again precise);
  ignore (again precise);
  check_cisc_agree "load/store block" sb precise

(* --- fallback edge: block-boundary branch to an uncached pc --------------- *)

(* The builder follows an unconditional direct branch, so the pre-branch
   instructions, the branch and its target all land in one block — the
   skipped bytes never execute and the counters stay exact. *)

let test_risc_branch_to_uncached () =
  let setup mem (cpu : Ferrite_risc.Cpu.t) =
    Memory.poke32_be mem code_base 0x38600001;
    (* li r3, 1 *)
    Memory.poke32_be mem (code_base + 4) 0x4800000C;
    (* b +12 (to code_base+16) *)
    Memory.poke32_be mem (code_base + 8) 0x38600063;
    (* li r3, 99 — must be skipped *)
    Memory.poke32_be mem (code_base + 16) 0x38800002;
    (* li r4, 2 *)
    cpu.Ferrite_risc.Cpu.pc <- code_base
  in
  let sb, precise = risc_pair setup in
  let module Cpu = Ferrite_risc.Cpu in
  let ra = risc_run sb 3 in
  let rb = risc_run precise 3 in
  check_bool "same run result" true (ra = rb);
  check_int "retired across the boundary" 3 (fst ra);
  check_int "branch taken" 1 sb.Cpu.gpr.(3);
  check_int "target block executed" 2 sb.Cpu.gpr.(4);
  check_risc_agree "block-boundary branch" sb precise;
  let blocks = sb_blocks (Cpu.cache_stats sb) and insns = sb_insns (Cpu.cache_stats sb) in
  check_bool "the branch was followed into one block" true (blocks >= 1);
  check_int "all three instructions retired in superblocks" 3 insns

(* --- block exits on events: watchpoints, self-stores, the stop address ---- *)

(* Each case ends a run inside a block on an event the precise loop reports
   after the event-carrying instruction retires. The translated side must
   stop at the same micro-op with the same pc, retired count and counters. *)

let data = code_base + 0x1000

let test_risc_watch_in_block () =
  let setup mem (cpu : Ferrite_risc.Cpu.t) =
    List.iteri
      (fun i w -> Memory.poke32_be mem (code_base + (4 * i)) w)
      [
        0x38600005 (* li r3, 5 *);
        0x90660000 (* stw r3, 0(r6) — watched *);
        0x38800001 (* li r4, 1 *);
        0x38A00002 (* li r5, 2 *);
      ];
    cpu.Ferrite_risc.Cpu.gpr.(6) <- data;
    Debug_regs.set_data_bp cpu.Ferrite_risc.Cpu.dr ~addr:data ~len:4;
    cpu.Ferrite_risc.Cpu.pc <- code_base
  in
  let sb, precise = risc_pair setup in
  let ra = risc_run sb 4 in
  check_bool "same run result" true (ra = risc_run precise 4);
  (match ra with
  | 1, Ferrite_risc.Cpu.Hit_dbp _ -> ()
  | _ -> Alcotest.fail "expected (1, Hit_dbp)");
  check_int "pc after the store" (code_base + 8) sb.Ferrite_risc.Cpu.pc;
  check_risc_agree "watch in block" sb precise;
  check_int "the store ran in the block" 2 (sb_insns (Ferrite_risc.Cpu.cache_stats sb))

let test_cisc_watch_in_block () =
  let setup mem (cpu : Ferrite_cisc.Cpu.t) =
    List.iteri
      (fun i b -> Memory.poke8 mem (code_base + i) b)
      ([ 0xB8; 5; 0; 0; 0 ] (* mov eax, 5 *)
      @ [ 0x89; 0x06 ] (* mov [esi], eax — watched *)
      @ [ 0xB9; 1; 0; 0; 0 ] (* mov ecx, 1 *)
      @ [ 0xBA; 2; 0; 0; 0 ] (* mov edx, 2 *));
    cpu.Ferrite_cisc.Cpu.regs.(Ferrite_cisc.Cpu.esi) <- data;
    Debug_regs.set_data_bp cpu.Ferrite_cisc.Cpu.dr ~addr:data ~len:4;
    cpu.Ferrite_cisc.Cpu.eip <- code_base
  in
  let sb, precise = cisc_pair setup in
  let ra = cisc_run sb 4 in
  check_bool "same run result" true (ra = cisc_run precise 4);
  (match ra with
  | 1, Ferrite_cisc.Cpu.Hit_dbp _ -> ()
  | _ -> Alcotest.fail "expected (1, Hit_dbp)");
  check_int "eip after the store" (code_base + 7) sb.Ferrite_cisc.Cpu.eip;
  check_cisc_agree "watch in block" sb precise;
  check_int "the store ran in the block" 2 (sb_insns (Ferrite_cisc.Cpu.cache_stats sb))

(* A call the builder follows, its target in the same block. [esp] decides
   where the return address lands: on a watched slot, or over the target's
   own immediate. *)
let cisc_call_program ~esp mem (cpu : Ferrite_cisc.Cpu.t) =
  List.iteri
    (fun i b -> Memory.poke8 mem (code_base + i) b)
    ([ 0xB8; 1; 0; 0; 0 ] (* +0  mov eax, 1 *)
    @ [ 0xE8; 5; 0; 0; 0 ] (* +5  call +5 *)
    @ [ 0xB8; 99; 0; 0; 0 ] (* +10 mov eax, 99 — skipped *)
    @ [ 0xB9; 2; 0; 0; 0 ] (* +15 mov ecx, 2 — the call target *)
    @ [ 0xF4 ] (* +20 hlt *));
  cpu.Ferrite_cisc.Cpu.regs.(Ferrite_cisc.Cpu.esp) <- esp;
  cpu.Ferrite_cisc.Cpu.eip <- code_base

let test_cisc_call_push_watched () =
  let setup mem (cpu : Ferrite_cisc.Cpu.t) =
    cisc_call_program ~esp:(data + 0x100) mem cpu;
    Debug_regs.set_data_bp cpu.Ferrite_cisc.Cpu.dr ~addr:(data + 0xFC) ~len:4
  in
  let sb, precise = cisc_pair setup in
  let ra = cisc_run sb 3 in
  check_bool "same run result" true (ra = cisc_run precise 3);
  (match ra with
  | 1, Ferrite_cisc.Cpu.Hit_dbp { Debug_regs.is_write = true; _ } -> ()
  | _ -> Alcotest.fail "expected (1, Hit_dbp write)");
  check_int "eip on the call target" (code_base + 15) sb.Ferrite_cisc.Cpu.eip;
  check_cisc_agree "call push watched" sb precise;
  check_int "the call ran in the block" 2 (sb_insns (Ferrite_cisc.Cpu.cache_stats sb))

let test_cisc_call_push_into_block () =
  (* the push writes the return address over the immediate at +16 *)
  let sb, precise = cisc_pair (cisc_call_program ~esp:(code_base + 20)) in
  let ra = cisc_run sb 3 in
  check_bool "same run result" true (ra = cisc_run precise 3);
  check_bool "three retired" true (ra = (3, Ferrite_cisc.Cpu.Retired));
  check_int "the rewritten immediate executed, not the stale block"
    (code_base + 10)
    sb.Ferrite_cisc.Cpu.regs.(Ferrite_cisc.Cpu.ecx);
  check_cisc_agree "call push into block" sb precise

let test_risc_stop_in_block () =
  let setup mem (cpu : Ferrite_risc.Cpu.t) =
    Memory.poke32_be mem code_base 0x38600001;
    (* li r3, 1 *)
    Memory.poke32_be mem (code_base + 4) 0x4E800020;
    (* blr to the stop address *)
    cpu.Ferrite_risc.Cpu.lr <- stop_addr;
    cpu.Ferrite_risc.Cpu.pc <- code_base
  in
  let sb, precise = risc_pair setup in
  let ra = risc_run sb 4 in
  check_bool "same run result" true (ra = risc_run precise 4);
  check_bool "(1, Stopped)" true (ra = (1, Ferrite_risc.Cpu.Stopped));
  check_int "pc on the stop address" stop_addr sb.Ferrite_risc.Cpu.pc;
  check_risc_agree "stop in block" sb precise;
  check_int "the return ran in the block" 2 (sb_insns (Ferrite_risc.Cpu.cache_stats sb))

let test_cisc_stop_in_block () =
  let setup mem (cpu : Ferrite_cisc.Cpu.t) =
    Memory.poke8 mem code_base 0xB8;
    Memory.poke32_le mem (code_base + 1) 1;
    (* mov eax, 1 *)
    Memory.poke8 mem (code_base + 5) 0xC3;
    (* ret to the stop address *)
    Memory.poke32_le mem data stop_addr;
    cpu.Ferrite_cisc.Cpu.regs.(Ferrite_cisc.Cpu.esp) <- data;
    cpu.Ferrite_cisc.Cpu.eip <- code_base
  in
  let sb, precise = cisc_pair setup in
  let ra = cisc_run sb 4 in
  check_bool "same run result" true (ra = cisc_run precise 4);
  check_bool "(1, Stopped)" true (ra = (1, Ferrite_cisc.Cpu.Stopped));
  check_int "eip on the stop address" stop_addr sb.Ferrite_cisc.Cpu.eip;
  check_cisc_agree "stop in block" sb precise;
  check_int "the return ran in the block" 2 (sb_insns (Ferrite_cisc.Cpu.cache_stats sb))

(* --- wild marches: [00 00] runs retired in closed form --------------------- *)

(* Wild execution through zero-filled lowmem decodes [00 00] as
   [add [eax],al]. Once the decode miss streak saturates, the run loop
   retires such runs in closed form ([march]); the precise twin steps every
   one. Each case runs both until the streak is saturated, sets up the edge
   it pins, then compares one run: the result, the retired count, the
   registers, EFLAGS, CR2, the store address, the pending hit, the byte at
   [eax] and the counters. *)

module Ccpu = Ferrite_cisc.Cpu

let march_base = 0xC0400000  (* mapped, zero-filled *)
let march_data = 0xC0500010  (* [eax]: a mapped data page; AL = 0x10 *)

let march_steps cpu = (Ccpu.cache_stats cpu).Cache_stats.cs_march_steps

let march_pair () =
  let make sb =
    Memory.set_superblocks_default sb;
    let mem =
      Fun.protect ~finally:(fun () -> Memory.set_superblocks_default true) Memory.create
    in
    (* the kernel's lowmem window, as [Boot] sets it up *)
    Memory.set_auto_map mem ~lo:0xC0000000 ~hi:0xC1000000 ~perm:Memory.perm_rwx;
    Memory.map mem ~addr:march_base ~size:0x3000 ~perm:Memory.perm_rwx;
    Memory.map mem ~addr:(march_data land lnot 0xFFF) ~size:0x1000 ~perm:Memory.perm_rw;
    let cpu = Ccpu.create ~mem ~stop_addr in
    cpu.Ccpu.eip <- march_base;
    cpu.Ccpu.regs.(Ccpu.eax) <- march_data;
    (* 8 blocks of 32 fresh decodes saturate the streak; the rest march *)
    ignore (Ccpu.run cpu ~max_steps:300);
    cpu
  in
  let sb = make true and precise = make false in
  check_bool "the warm-up marched" true (march_steps sb > 0);
  (sb, precise)

let check_march_agree msg (a : Ccpu.t) (b : Ccpu.t) =
  check_cisc_agree msg a b;
  check_int (msg ^ ": eflags") b.Ccpu.eflags a.Ccpu.eflags;
  check_int (msg ^ ": cr2") b.Ccpu.cr2 a.Ccpu.cr2;
  check_int (msg ^ ": store address") b.Ccpu.last_store_addr a.Ccpu.last_store_addr;
  check_bool (msg ^ ": pending hit") true (b.Ccpu.pending_hit = a.Ccpu.pending_hit);
  check_bool (msg ^ ": stopped") b.Ccpu.stopped a.Ccpu.stopped;
  let at = b.Ccpu.regs.(Ccpu.eax) in
  let byte (c : Ccpu.t) = if Memory.is_mapped c.Ccpu.mem at then Memory.peek8 c.Ccpu.mem at else -1 in
  check_int (msg ^ ": byte at [eax]") (byte b) (byte a);
  check_int (msg ^ ": the precise twin never marches") 0 (march_steps b)

(* Apply [f] to both twins. *)
let both (sb, precise) f = List.iter f [ sb; precise ]

(* A store that leaves the byte at [addr] as it was, so that the write TLB
   holds its page and a TLB miss cannot be what stops the march: the bound
   under test must. *)
let fill_write_tlb (c : Ccpu.t) addr = Memory.store8 c.Ccpu.mem addr (Memory.peek8 c.Ccpu.mem addr)

(* One run of [n] steps on both; returns the translated side's result. *)
let march_run msg (sb, precise) n =
  let ra = cisc_run sb n in
  check_bool (msg ^ ": same run result") true (ra = cisc_run precise n);
  check_march_agree msg sb precise;
  ra

(* The march runs off the first mapped page onto the next: the page end
   bounds each fast-forward, and the precise step crosses it, here onto two
   [nop]s. *)
let test_march_crosses_page () =
  let ((sb, _) as pair) = march_pair () in
  both pair (fun c ->
      Memory.poke8 c.Ccpu.mem (march_base + 0x1000) 0x90;
      Memory.poke8 c.Ccpu.mem (march_base + 0x1001) 0x90);
  let before = march_steps sb in
  let r = march_run "page end" pair 0x1000 in
  check_bool "retired the whole budget" true (r = (0x1000, Ccpu.Retired));
  check_int "two pages on, less one add for the two nops" (march_base + 0x2256) sb.Ccpu.eip;
  check_bool "marched in closed form" true (march_steps sb - before > 0x1000 - 16)

(* [eax] points into the bytes ahead with AL = 0x01: each step bumps a byte
   the march will reach, so it must stop there and decode what the adds
   made of it. *)
let test_march_store_ahead () =
  let ((sb, _) as pair) = march_pair () in
  both pair (fun c ->
      fill_write_tlb c (c.Ccpu.eip - 1);
      c.Ccpu.regs.(Ccpu.eax) <- c.Ccpu.eip + 0x81);
  let before = march_steps sb in
  ignore (march_run "store ahead" pair 0x200);
  check_bool "marched up to the rewritten byte" true (march_steps sb - before >= 0x3F)

(* An execute breakpoint at pc+2j: the march stops short of it, and the
   precise step reports it with the flags of the add before. *)
let test_march_bp_ahead () =
  let ((sb, _) as pair) = march_pair () in
  let target = sb.Ccpu.eip + 0x42 in
  both pair (fun c -> Debug_regs.set_instruction_bp c.Ccpu.dr target);
  let r = march_run "breakpoint ahead" pair 100 in
  check_bool "(0x21, Hit_ibp)" true (r = (0x21, Ccpu.Hit_ibp));
  check_int "eip on the breakpoint" target sb.Ccpu.eip

(* A data watch over [eax]: every march step touches it, so nothing is
   fast-forwarded and the first step reports the hit. *)
let test_march_watched () =
  let ((sb, _) as pair) = march_pair () in
  both pair (fun c -> Debug_regs.set_data_bp c.Ccpu.dr ~addr:march_data ~len:1);
  let before = march_steps sb in
  (match march_run "watched [eax]" pair 50 with
  | 0, Ccpu.Hit_dbp _ -> ()
  | _ -> Alcotest.fail "expected (0, Hit_dbp)");
  check_int "nothing fast-forwarded" before (march_steps sb);
  (* the hit is left pending; the next steps clear it, so the march does *)
  both pair (fun c ->
      Debug_regs.clear_all c.Ccpu.dr;
      Debug_regs.set_instruction_bp c.Ccpu.dr (c.Ccpu.eip + 8));
  check_bool "then (4, Hit_ibp)" true (march_run "watch cleared" pair 50 = (4, Ccpu.Hit_ibp));
  check_int "fast-forwarded" (before + 4) (march_steps sb)

(* A march onto a page that is not executable: the fetch takes #GP. *)
let test_march_not_executable () =
  let ((sb, _) as pair) = march_pair () in
  both pair (fun c ->
      Memory.set_perm c.Ccpu.mem ~addr:march_base ~size:0x1000 ~perm:Memory.perm_rw;
      fill_write_tlb c march_data);
  let before = march_steps sb in
  (match march_run "not executable" pair 50 with
  | 0, Ccpu.Faulted (Ferrite_cisc.Exn.General_protection _) -> ()
  | _ -> Alcotest.fail "expected (0, #GP on the fetch)");
  check_int "nothing fast-forwarded" before (march_steps sb)

(* A march up to the top of the address space: EIP wraps to 0, where
   nothing is mapped. *)
let test_march_wraps () =
  let ((sb, _) as pair) = march_pair () in
  both pair (fun c ->
      Memory.map c.Ccpu.mem ~addr:0xFFFFF000 ~size:0x1000 ~perm:Memory.perm_rwx;
      c.Ccpu.eip <- 0xFFFFFF80);
  (match march_run "wrap" pair 100 with
  | 64, Ccpu.Faulted (Ferrite_cisc.Exn.Page_fault { addr = 0; _ }) -> ()
  | _ -> Alcotest.fail "expected (64, #PF at 0)");
  check_int "eip wrapped" 0 sb.Ccpu.eip

(* Budgets of 1 and 2: the precise step always runs the last instruction,
   so one step fast-forwards nothing and two fast-forward one. Eight
   single-step budgets in a row, with AL = 0x40, also end on an add that
   overflows and one that carries. *)
let test_march_budgets () =
  let ((sb, _) as pair) = march_pair () in
  both pair (fun c -> c.Ccpu.regs.(Ccpu.eax) <- march_data + 0x30);
  for i = 1 to 8 do
    let before = march_steps sb in
    let r = march_run (Printf.sprintf "budget 1, run %d" i) pair 1 in
    check_bool "(1, Retired)" true (r = (1, Ccpu.Retired));
    check_int "budget 1 fast-forwards nothing" before (march_steps sb)
  done;
  for i = 1 to 8 do
    let before = march_steps sb in
    let r = march_run (Printf.sprintf "budget 2, run %d" i) pair 2 in
    check_bool "(2, Retired)" true (r = (2, Ccpu.Retired));
    check_int "budget 2 fast-forwards one" (before + 1) (march_steps sb)
  done

(* The flags of the last fast-forwarded add, seen through a breakpoint
   that stops the precise step before it runs anything: AL = 0xC0 over a
   zero byte sums to C0, 180, 140, 100 and C0 again, which set neither CF
   nor OF, then CF, CF and OF, CF and ZF, and neither. *)
let test_march_last_add_flags () =
  List.iter
    (fun (j, cf, o, zf) ->
      let ((sb, _) as pair) = march_pair () in
      let target = sb.Ccpu.eip + (2 * j) in
      both pair (fun c ->
          c.Ccpu.regs.(Ccpu.eax) <- march_data + 0xB0;
          Debug_regs.set_instruction_bp c.Ccpu.dr target);
      let before = march_steps sb in
      let msg = Printf.sprintf "%d adds" j in
      let r = march_run msg pair 100 in
      check_bool (msg ^ ": (j, Hit_ibp)") true (r = (j, Ccpu.Hit_ibp));
      check_int (msg ^ ": all fast-forwarded") (before + j) (march_steps sb);
      check_bool (msg ^ ": CF") cf (Ccpu.getf sb Ccpu.flag_cf);
      check_bool (msg ^ ": OF") o (Ccpu.getf sb Ccpu.flag_of);
      check_bool (msg ^ ": ZF") zf (Ccpu.getf sb Ccpu.flag_zf))
    [ (1, false, false, false); (2, true, false, false); (3, true, true, false);
      (4, true, false, true); (5, false, false, false) ]

(* [eax] on an unmapped page inside the lowmem window: the first step
   demand-maps it, and the march resumes from the next. Outside the window
   the step takes a #PF with CR2 = [eax], and nothing was fast-forwarded. *)
let test_march_unmapped_data () =
  let ((sb, _) as pair) = march_pair () in
  let in_window = 0xC0700005 in
  both pair (fun c -> c.Ccpu.regs.(Ccpu.eax) <- in_window);
  let before = march_steps sb in
  ignore (march_run "unmapped, in the window" pair 100);
  check_bool "demand-mapped" true (Memory.is_mapped sb.Ccpu.mem in_window);
  check_int "then marched" (before + 98) (march_steps sb);
  let ((sb, _) as pair) = march_pair () in
  both pair (fun c -> c.Ccpu.regs.(Ccpu.eax) <- 0x00080005);
  let before = march_steps sb in
  (match march_run "unmapped, outside the window" pair 100 with
  | 0, Ccpu.Faulted (Ferrite_cisc.Exn.Page_fault { write = false; _ }) -> ()
  | _ -> Alcotest.fail "expected (0, #PF on the read)");
  check_int "cr2 is [eax]" 0x00080005 sb.Ccpu.cr2;
  check_int "nothing fast-forwarded" before (march_steps sb)

(* [eax] on a read-only page, or a write-only one: the store or the load
   takes #GP, and nothing was fast-forwarded. *)
let test_march_data_not_rw () =
  List.iter
    (fun (what, perm) ->
      let ((sb, _) as pair) = march_pair () in
      both pair (fun c ->
          Memory.set_perm c.Ccpu.mem ~addr:march_data ~size:1 ~perm;
          (* the permission change flushed the TLBs: refill them *)
          ignore (Memory.fetch8 c.Ccpu.mem c.Ccpu.eip);
          if perm.Memory.writable then fill_write_tlb c march_data);
      let before = march_steps sb in
      (match march_run what pair 50 with
      | 0, Ccpu.Faulted (Ferrite_cisc.Exn.General_protection _) -> ()
      | _ -> Alcotest.fail (what ^ ": expected (0, #GP)"));
      check_int (what ^ ": nothing fast-forwarded") before (march_steps sb))
    [
      ("read-only [eax]", Memory.perm_ro);
      ("write-only [eax]", { Memory.readable = false; writable = true; executable = false });
    ]

(* A poisoned CR3: the next fetch faults at a scrambled address, so the
   march must not skip it. *)
let test_march_poisoned () =
  let ((sb, _) as pair) = march_pair () in
  both pair (fun c -> c.Ccpu.tlb_poisoned <- true);
  let before = march_steps sb in
  (match march_run "poisoned" pair 100 with
  | 0, Ccpu.Faulted (Ferrite_cisc.Exn.Page_fault _) -> ()
  | _ -> Alcotest.fail "expected (0, scrambled #PF)");
  check_int "nothing fast-forwarded" before (march_steps sb)

(* --- compiled micro-ops: every specialised form against a precise twin --- *)

(* A block runs most instructions as closures that [Isa.compile] specialised
   to their operands when the block was built. Each property generates one
   instruction of a specialised form (and now and then a neighbouring form
   that is not specialised), a random register and flag state, and an
   access target: a word of a read-write page, the last bytes of that page
   (an access that runs off it), a read-only page or unmapped memory, with
   a data watch on the accessed word half of the time. The instruction sits
   in a page of no-ops, so a taken branch lands on one; the translated CPU
   runs it as the first micro-op of a block, and after one more step both
   CPUs must agree on the result, the pc, every register, the flags or CR,
   the counters, the store address, [pending_hit], [cr2] and the bytes of
   the read-write page. A fault's address is part of the result. *)

let rw_page = 0xC0200000
let ro_page = 0xC0300000
let unmapped_addr = 0x7EAD0000
let insn_at = code_base + 0x100

let target_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun k -> rw_page + k) (int_bound 0xFF0));
        (1, map (fun k -> rw_page + 0x1000 - 1 - k) (int_bound 2));
        (2, map (fun k -> ro_page + (4 * k)) (int_bound 0x3F0));
        (2, return unmapped_addr);
      ])

(* register values near the flag edges as often as anywhere *)
let value_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun v -> v land 0xFFFFFFFF) int);
        (2, int_bound 0xFF);
        (2, oneofl [ 0; 1; 0x7FFFFFFF; 0x80000000; 0xFFFFFFFF; 0xFFFFFFFE; 0x80000001 ]);
      ])

let disp_gen =
  QCheck.Gen.(oneof [ oneofl [ 0; 4; -4; -8; -1; 0x7C; -0x80 ]; int_range (-0x8000) 0x7FFF ])

(* The data pages' bytes, from [seed], on the code memory [mem]. *)
let map_data mem seed =
  Memory.map mem ~addr:rw_page ~size:0x1000 ~perm:Memory.perm_rw;
  Memory.map mem ~addr:ro_page ~size:0x1000 ~perm:Memory.perm_ro;
  let fill base = Memory.blit_string mem ~addr:base (String.init 0x1000 (fun i -> Char.chr ((i * 131 + seed) land 0xFF))) in
  fill rw_page;
  fill ro_page

let page_bytes mem = String.init 0x1000 (fun i -> Char.chr (Memory.peek8 mem (rw_page + i)))

let watch_word dr target = Debug_regs.set_data_bp dr ~addr:(target land lnot 3) ~len:4

(* -- P4 -- *)

type cisc_case = {
  c_insn : Ferrite_cisc.Insn.t;
  c_rep : bool;
  c_regs : int array;
  c_eflags : int;
  c_target : int;
  c_watch : bool;
  c_seed : int;
}

let cisc_case_gen =
  let open QCheck.Gen in
  let open Ferrite_cisc.Insn in
  let reg = int_bound 7 in
  let plain b disp = Mem { base = Some b; index = None; disp; seg = None } in
  let alu = oneofl [ Add; Or; Adc; Sbb; And; Sub; Xor; Cmp ] in
  let cond = oneofl [ O; NO; B; AE; E; NE; BE; A; S; NS; P; NP; L; GE; LE; G ] in
  let imm = map (fun v -> v land 0xFFFFFFFF) int in
  let rel = int_range (-0x80) 0x200 in
  (* the instruction, and the base register and displacement its data
     access resolves through, for the target to be planted in *)
  let with_mem f = map3 (fun b d x -> (f (plain b d) x, Some (b, d))) reg disp_gen reg in
  let shapes =
    [
      map2 (fun r s -> (Mov (S32, Reg r, Reg s), None)) reg reg;
      map2 (fun r v -> (Mov (S32, Reg r, Imm v), None)) reg imm;
      with_mem (fun m r -> Mov (S32, Reg r, m));
      with_mem (fun m r -> Mov (S32, m, Reg r));
      with_mem (fun m r -> Mov (S8, m, Reg r));
      with_mem (fun m r -> Movzx (S8, r, m));
      with_mem (fun m r -> Movzx (S16, r, m));
      map3 (fun op r s -> (Alu (op, S32, Reg r, Reg s), None)) alu reg reg;
      map3 (fun op r v -> (Alu (op, S32, Reg r, Imm v), None)) alu reg imm;
      (alu >>= fun op -> with_mem (fun m r -> Alu (op, S32, Reg r, m)));
      map2 (fun r s -> (Imul2 (r, Reg s), None)) reg reg;
      map3 (fun r s k -> (Imul3 (r, Reg s, k), None)) reg reg imm;
      map (fun r -> (Push (Reg r), Some (Ferrite_cisc.Cpu.esp, -4))) reg;
      map (fun r -> (Pop (Reg r), Some (Ferrite_cisc.Cpu.esp, 0))) reg;
      map2 (fun c r -> (Jcc (c, r), None)) cond rel;
      map (fun r -> (Jmp_rel r, None)) rel;
      (* neighbours that stay on [exec]: a 16-bit move, an ALU op into
         memory *)
      with_mem (fun m r -> Mov (S16, m, Reg r));
      (alu >>= fun op -> with_mem (fun m r -> Alu (op, S32, m, Reg r)));
    ]
  in
  oneof shapes >>= fun (insn, base) ->
  array_size (return 8) value_gen >>= fun regs ->
  target_gen >>= fun target ->
  (match base with
  | Some (b, d) -> regs.(b) <- Word.mask (target - d)
  | None -> ());
  map4
    (fun rep flags watch seed ->
      {
        c_insn = insn;
        c_rep = rep = 0;
        c_regs = regs;
        c_eflags = (flags land 0x8D5) lor 0x202;
        c_target = target;
        c_watch = watch;
        c_seed = seed;
      })
    (int_bound 5) (int_bound 0xFFF) bool (int_bound 0xFF)

let print_cisc_case c =
  Printf.sprintf "%s%s regs=[%s] eflags=%x target=%x watch=%b seed=%d"
    (if c.c_rep then "rep " else "")
    (Ferrite_cisc.Disasm.insn c.c_insn)
    (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%x") c.c_regs)))
    c.c_eflags c.c_target c.c_watch c.c_seed

let cisc_twin_state (cpu : Ferrite_cisc.Cpu.t) res =
  let module Cpu = Ferrite_cisc.Cpu in
  ( res,
    ( cpu.Cpu.eip,
      Array.to_list cpu.Cpu.regs,
      cpu.Cpu.eflags,
      cpu.Cpu.cr2,
      Counters.stamp cpu.Cpu.counters ),
    (cpu.Cpu.pending_hit, cpu.Cpu.last_store_addr, page_bytes cpu.Cpu.mem) )

let prop_cisc_compiled =
  QCheck.Test.make ~name:"cisc compiled micro-ops == precise step" ~count:600
    (QCheck.make ~print:print_cisc_case cisc_case_gen)
    (fun c ->
      let module Cpu = Ferrite_cisc.Cpu in
      let setup mem (cpu : Cpu.t) =
        Memory.blit_string mem ~addr:code_base (String.make 0x2000 '\x90');
        Memory.blit_string mem ~addr:insn_at (Ferrite_cisc.Encode.insn ~rep:c.c_rep c.c_insn);
        map_data mem c.c_seed;
        Array.blit c.c_regs 0 cpu.Cpu.regs 0 8;
        cpu.Cpu.eflags <- c.c_eflags;
        if c.c_watch then watch_word cpu.Cpu.dr c.c_target;
        cpu.Cpu.eip <- insn_at
      in
      let sb, precise = cisc_pair setup in
      let ra = cisc_run sb 2 in
      let rb = cisc_run precise 2 in
      cisc_twin_state sb ra = cisc_twin_state precise rb)

(* -- G4 -- *)

type risc_case = {
  r_insn : Ferrite_risc.Insn.t;
  r_gpr : int array;
  r_cr : int;
  r_xer : int;
  r_ctr : int;
  r_target : int;
  r_watch : bool;
  r_seed : int;
}

let risc_case_gen =
  let open QCheck.Gen in
  let open Ferrite_risc.Insn in
  let reg = int_bound 31 in
  (* rA is 0, the [(rA|0)] case, one time in four *)
  let ra_gen = frequency [ (1, return 0); (3, int_range 1 31) ] in
  let simm = int_range (-0x8000) 0x7FFF and uimm = int_bound 0xFFFF in
  let m width update = { width; algebraic = false; update } in
  let width = oneofl [ Word; Half; Byte ] in
  let with_mem f =
    map3 (fun ra d x -> (f ra d x, if ra = 0 then None else Some (ra, d))) ra_gen simm reg
  in
  let bo = oneofl [ 4; 12; 20; 16; 18; 0; 2; 8; 10 ] in
  let rel = map (fun k -> 4 * k) (int_range (-0x20) 0x80) in
  let shapes =
    [
      map4 (fun op rd ra k -> (Darith (op, rd, ra, k), None)) (oneofl [ Addi; Addis ]) reg ra_gen simm;
      map4
        (fun op ra rs k -> (Dlogic (op, ra, rs, k), None))
        (oneofl [ Ori; Oris; Xori; Xoris; Andi_rc ])
        reg reg uimm;
      (width >>= fun w -> with_mem (fun ra d rd -> Load (m w false, rd, ra, d)));
      (width >>= fun w -> with_mem (fun ra d rs -> Store (m w false, rs, ra, d)));
      map3
        (fun ra d rs -> (Store (m Word true, rs, ra, d), Some (ra, d)))
        reg simm reg;
      map4 (fun crf ra k u -> (Cmpi (u, crf, ra, if u then k land 0xFFFF else k), None)) (int_bound 7) reg simm bool;
      map4 (fun crf ra rb u -> (Cmp (u, crf, ra, rb), None)) (int_bound 7) reg reg bool;
      map4
        (fun op rd ra rb -> (Xarith (op, rd, ra, rb, false), None))
        (oneofl [ Add; Subf; Mullw ]) reg reg reg;
      map4
        (fun op ra rs rb -> (Xlogic (op, ra, rs, rb, false), None))
        (oneofl [ Or; And; Xor ]) reg reg reg;
      map2 (fun ra rs -> (Xlogic (Or, ra, rs, rs, false), None)) reg reg;
      map2 (fun li lk -> (B (li, false, lk), None)) rel bool;
      (* an absolute branch to the stop address *)
      map (fun lk -> (B (stop_addr - 0x100000000, true, lk), None)) bool;
      map3 (fun bo bi bd -> (Bc (bo, bi, bd, false, false), None)) bo (int_bound 31) rel;
      (* neighbours that stay on [exec]: an update load, a recording add,
         a linking conditional branch *)
      with_mem (fun ra d rd -> Load (m Word true, rd, ra, d));
      map3 (fun rd ra rb -> (Xarith (Add, rd, ra, rb, true), None)) reg reg reg;
      map3 (fun bo bi bd -> (Bc (bo, bi, bd, false, true), None)) bo (int_bound 31) rel;
    ]
  in
  oneof shapes >>= fun (insn, base) ->
  array_size (return 32) value_gen >>= fun gpr ->
  target_gen >>= fun target ->
  (match base with
  | Some (ra, d) -> gpr.(ra) <- Word.mask (target - d)
  | None -> ());
  map4
    (fun (cr, xer) ctr watch seed ->
      {
        r_insn = insn;
        r_gpr = gpr;
        r_cr = cr;
        r_xer = xer;
        r_ctr = ctr;
        r_target = target;
        r_watch = watch;
        r_seed = seed;
      })
    (pair value_gen (oneofl [ 0; 0x80000000; 0x20000000 ]))
    (int_bound 3) bool (int_bound 0xFF)

let print_risc_case c =
  Printf.sprintf "%s gpr=[%s] cr=%x xer=%x ctr=%d target=%x watch=%b seed=%d"
    (Ferrite_risc.Disasm.insn c.r_insn)
    (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%x") c.r_gpr)))
    c.r_cr c.r_xer c.r_ctr c.r_target c.r_watch c.r_seed

let risc_twin_state (cpu : Ferrite_risc.Cpu.t) res =
  let module Cpu = Ferrite_risc.Cpu in
  ( res,
    ( cpu.Cpu.pc,
      Array.to_list cpu.Cpu.gpr,
      (cpu.Cpu.cr, cpu.Cpu.xer, cpu.Cpu.lr, cpu.Cpu.ctr),
      Counters.stamp cpu.Cpu.counters ),
    (cpu.Cpu.pending_hit, cpu.Cpu.last_store_addr, page_bytes cpu.Cpu.mem) )

let prop_risc_compiled =
  QCheck.Test.make ~name:"risc compiled micro-ops == precise step" ~count:600
    (QCheck.make ~print:print_risc_case risc_case_gen)
    (fun c ->
      let module Cpu = Ferrite_risc.Cpu in
      let nop = Ferrite_risc.Encode.insn Ferrite_risc.Insn.nop in
      let setup mem (cpu : Cpu.t) =
        for i = 0 to (0x2000 / 4) - 1 do
          Memory.poke32_be mem (code_base + (4 * i)) nop
        done;
        Memory.poke32_be mem insn_at (Ferrite_risc.Encode.insn c.r_insn);
        map_data mem c.r_seed;
        Array.blit c.r_gpr 0 cpu.Cpu.gpr 0 32;
        cpu.Cpu.cr <- c.r_cr;
        cpu.Cpu.xer <- c.r_xer;
        cpu.Cpu.ctr <- c.r_ctr;
        cpu.Cpu.lr <- code_base;
        if c.r_watch then watch_word cpu.Cpu.dr c.r_target;
        cpu.Cpu.pc <- insn_at
      in
      let sb, precise = risc_pair setup in
      let ra = risc_run sb 2 in
      let rb = risc_run precise 2 in
      risc_twin_state sb ra = risc_twin_state precise rb)

(* --- Cache_stats: overflow-safe merge, monotonicity ----------------------- *)

(* Pre-fix, [merge] summed fields with plain [+]: two near-[max_int] counters
   (a long campaign's worth of decode hits per worker) wrapped negative,
   breaking the documented monotonicity. The fixed merge saturates. *)

let test_cache_stats_merge_saturates () =
  let a =
    { Cache_stats.zero with
      Cache_stats.cs_decode_hits = max_int - 5; cs_march_steps = max_int - 5 }
  in
  let b = { Cache_stats.zero with Cache_stats.cs_decode_hits = 10; cs_march_steps = 10 } in
  let m = Cache_stats.merge a b in
  check_int "merge saturates at max_int" max_int m.Cache_stats.cs_decode_hits;
  check_int "so do march steps" max_int m.Cache_stats.cs_march_steps;
  List.iter2
    (fun ((name, va), (_, vb)) (_, vm) ->
      check_bool (name ^ ": merge is monotone in both operands") true
        (vm >= va && vm >= vb))
    (List.combine (Cache_stats.fields a) (Cache_stats.fields b))
    (Cache_stats.fields m)

let test_cache_stats_delta_clamps () =
  let before =
    { Cache_stats.zero with Cache_stats.cs_sb_insns = 1000; cs_march_steps = 1000 }
  in
  let after = { Cache_stats.zero with Cache_stats.cs_sb_insns = 10; cs_march_steps = 10 } in
  (* the machine was dropped and re-booted between readings *)
  let d = Cache_stats.delta ~before ~after in
  check_int "delta clamps at zero instead of going negative" 0
    d.Cache_stats.cs_sb_insns;
  check_int "march steps clamp too" 0 d.Cache_stats.cs_march_steps

(* Counters are machine-lifetime diagnostics: a snapshot/restore (the logical
   reboot between trials) must not reset or replay them. *)

let test_cache_stats_monotone_across_restore () =
  let sys = Boot.boot Image.Cisc in
  for _ = 1 to 50 do
    ignore (System.step sys)
  done;
  let snap = System.snapshot sys in
  let s1 = System.cache_stats sys in
  System.restore sys snap;
  for _ = 1 to 50 do
    ignore (System.step sys)
  done;
  let s2 = System.cache_stats sys in
  List.iter2
    (fun (name, v1) (_, v2) ->
      check_bool (name ^ " is monotone across restore") true (v2 >= v1))
    (Cache_stats.fields s1) (Cache_stats.fields s2)

(* --- differential property: whole campaigns, byte for byte ---------------- *)

let run_campaign ~sb ~executor cfg =
  Memory.set_superblocks_default sb;
  Fun.protect
    ~finally:(fun () -> Memory.set_superblocks_default true)
    (fun () ->
      Campaign.run ~executor ~tracer:Ferrite_trace.Tracer.default_config cfg)

(* The exact bytes the columnar store would persist for this campaign. *)
let store_bytes res =
  let path = Filename.temp_file "ferrite_sb" ".fstore" in
  let w = Ferrite_store.Store.create path in
  Ferrite_injection.Result_store.append_result w res;
  Ferrite_store.Store.close w;
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  bytes

let kinds = [| Target.Stack; Target.Data; Target.Code; Target.Register |]
let arches = [| Image.Cisc; Image.Risc |]

let prop_superblocks_invisible =
  QCheck.Test.make
    ~name:"sb-on == sb-off (records, telemetry, traces, store bytes; jobs 1/2/4)"
    ~count:4
    QCheck.(triple (int_bound 0xFFFF) (int_bound 3) (int_bound 1))
    (fun (seed, ki, ai) ->
      let cfg =
        {
          (Campaign.default ~arch:arches.(ai) ~kind:kinds.(ki) ~injections:5) with
          Campaign.seed = Int64.of_int (succ seed);
          engine = { Engine.default_config with Engine.step_budget = 200_000 };
        }
      in
      let base = run_campaign ~sb:false ~executor:Executor.Sequential cfg in
      let seq = run_campaign ~sb:true ~executor:Executor.Sequential cfg in
      let par2 =
        run_campaign ~sb:true ~executor:(Executor.Parallel { domains = 2 }) cfg
      in
      let par4 =
        run_campaign ~sb:true ~executor:(Executor.Parallel { domains = 4 }) cfg
      in
      let boots_eq p =
        Ferrite_trace.Telemetry.with_boots base.Campaign.telemetry
          p.Campaign.reboots
        = Ferrite_trace.Telemetry.with_boots p.Campaign.telemetry
            p.Campaign.reboots
      in
      base.Campaign.records = seq.Campaign.records
      && base.Campaign.telemetry = seq.Campaign.telemetry
      && base.Campaign.traces = seq.Campaign.traces
      && store_bytes base = store_bytes seq
      (* parallel runs may differ in tl_boots (one boot per worker) but in
         nothing else *)
      && base.Campaign.records = par2.Campaign.records
      && base.Campaign.traces = par2.Campaign.traces
      && boots_eq par2
      && base.Campaign.records = par4.Campaign.records
      && base.Campaign.traces = par4.Campaign.traces
      && boots_eq par4
      && store_bytes seq = store_bytes par2)

let test_sb_stats_reflect_mode () =
  let cfg =
    {
      (Campaign.default ~arch:Image.Cisc ~kind:Target.Stack ~injections:3) with
      Campaign.seed = 0xBEEFL;
      engine = { Engine.default_config with Engine.step_budget = 100_000 };
    }
  in
  let off = run_campaign ~sb:false ~executor:Executor.Sequential cfg in
  check_int "no blocks built with superblocks off" 0
    off.Campaign.cache.Cache_stats.cs_sb_blocks;
  check_int "no translated instructions with superblocks off" 0
    off.Campaign.cache.Cache_stats.cs_sb_insns;
  let on = run_campaign ~sb:true ~executor:Executor.Sequential cfg in
  check_bool "translated run retires instructions in blocks" true
    (on.Campaign.cache.Cache_stats.cs_sb_insns > 0);
  check_bool "pre-warm installed entries" true
    (on.Campaign.cache.Cache_stats.cs_prewarmed > 0);
  check_bool "identical records regardless" true
    (off.Campaign.records = on.Campaign.records)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ferrite_superblocks"
    [
      ( "fallback edges",
        [
          Alcotest.test_case "risc self-modifying store" `Quick
            test_risc_smc_invalidates;
          Alcotest.test_case "cisc self-modifying store" `Quick
            test_cisc_smc_invalidates;
          Alcotest.test_case "risc mid-block exception" `Quick
            test_risc_midblock_exception;
          Alcotest.test_case "cisc mid-block exception" `Quick
            test_cisc_midblock_exception;
          Alcotest.test_case "risc armed breakpoint" `Quick
            test_risc_breakpoint_on_cached_block;
          Alcotest.test_case "risc branch to uncached pc" `Quick
            test_risc_branch_to_uncached;
          Alcotest.test_case "risc terminator poisons translation" `Quick
            test_risc_poisoning_terminator;
          Alcotest.test_case "cisc terminator poisons translation" `Quick
            test_cisc_poisoning_terminator;
        ] );
      ( "breakpoints",
        [
          Alcotest.test_case "risc on the entry" `Quick test_risc_bp_on_entry;
          Alcotest.test_case "cisc on the entry" `Quick test_cisc_bp_on_entry;
          Alcotest.test_case "risc on micro-op 2" `Quick test_risc_bp_mid_block;
          Alcotest.test_case "cisc on micro-op 2" `Quick test_cisc_bp_mid_block;
          Alcotest.test_case "risc on a followed branch target" `Quick
            test_risc_bp_on_branch_target;
          Alcotest.test_case "cisc on a followed branch target" `Quick
            test_cisc_bp_on_branch_target;
          Alcotest.test_case "risc two armed" `Quick test_risc_two_bps;
          Alcotest.test_case "cisc two armed" `Quick test_cisc_two_bps;
        ] );
      ( "block exits",
        [
          Alcotest.test_case "risc watchpoint in a block" `Quick
            test_risc_watch_in_block;
          Alcotest.test_case "cisc watchpoint in a block" `Quick
            test_cisc_watch_in_block;
          Alcotest.test_case "cisc call push watched" `Quick
            test_cisc_call_push_watched;
          Alcotest.test_case "cisc call push into its block" `Quick
            test_cisc_call_push_into_block;
          Alcotest.test_case "risc stop address in a block" `Quick
            test_risc_stop_in_block;
          Alcotest.test_case "cisc stop address in a block" `Quick
            test_cisc_stop_in_block;
        ] );
      ( "block table",
        [
          Alcotest.test_case "unbuilt slot never validates" `Quick
            test_unbuilt_slot_never_validates;
          Alcotest.test_case "prewarmed entries validate" `Quick
            test_prewarmed_entries_validate;
          Alcotest.test_case "terminator entry remembered" `Quick
            test_terminator_entry_remembered;
          Alcotest.test_case "translations survive restore" `Quick
            test_translations_survive_restore;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "check_data allocates nothing" `Quick
            test_check_data_allocates_nothing;
          Alcotest.test_case "risc warm run allocates nothing" `Quick
            test_risc_run_allocates_nothing;
          Alcotest.test_case "cisc warm run allocates nothing" `Quick
            test_cisc_run_allocates_nothing;
        ] );
      ( "wild marches",
        [
          Alcotest.test_case "across a page end" `Quick test_march_crosses_page;
          Alcotest.test_case "eax in the bytes ahead" `Quick test_march_store_ahead;
          Alcotest.test_case "breakpoint ahead" `Quick test_march_bp_ahead;
          Alcotest.test_case "watched eax" `Quick test_march_watched;
          Alcotest.test_case "budgets of 1 and 2" `Quick test_march_budgets;
          Alcotest.test_case "flags of the last add" `Quick test_march_last_add_flags;
          Alcotest.test_case "eax unmapped" `Quick test_march_unmapped_data;
          Alcotest.test_case "eax not read-write" `Quick test_march_data_not_rw;
          Alcotest.test_case "poisoned cr3" `Quick test_march_poisoned;
          Alcotest.test_case "not executable" `Quick test_march_not_executable;
          Alcotest.test_case "eip wraps" `Quick test_march_wraps;
        ] );
      ("micro-ops", [ q prop_cisc_compiled; q prop_risc_compiled ]);
      ( "cache stats",
        [
          Alcotest.test_case "merge saturates" `Quick
            test_cache_stats_merge_saturates;
          Alcotest.test_case "delta clamps" `Quick test_cache_stats_delta_clamps;
          Alcotest.test_case "monotone across restore" `Quick
            test_cache_stats_monotone_across_restore;
        ] );
      ( "differential",
        [
          q prop_superblocks_invisible;
          Alcotest.test_case "sb stats reflect mode" `Quick
            test_sb_stats_reflect_mode;
        ] );
    ]
