(* opcost: per-opcode cost of the P4 interpreter, in ns per retired step.

   For each of nine one-instruction forms it times three ways of executing
   it on a bare CPU (no kernel, no campaign):
   - step: a loop of 64 copies and a [jmp] back, one [Cpu.step] per
     instruction (the precise step on a warm decode cache);
   - run: the same loop through [Cpu.run] in 128-step calls (superblocks);
   - wild: a straight run of fresh copies through [Cpu.run], every pc new,
     the way wild execution after a corrupted jump meets memory. Once the
     decode miss streak saturates, each step is the precise step with a
     bypass decode; [00 00] ([add [eax],al]) is instead fast-forwarded in
     closed form by the wild march.
   Each cell is the fastest of seven timed passes after one untimed pass:
   the host may be shared, and interference only ever adds time.
   The loop forms amortise one [jmp] over 64 instructions.

   Usage: opcost.exe [--steps N]   (default 500,000 steps per pass) *)

open Ferrite_machine
open Ferrite_cisc

let code_base = 0x00400000
let data_addr = 0x00200000

let forms =
  let open Insn in
  let at_eax = Mem { base = Some Cpu.eax; index = None; disp = 0; seg = None } in
  let at_ebp = Mem { base = Some Cpu.ebp; index = None; disp = -8; seg = None } in
  [
    ("nop", Nop);
    ("mov al,al", Mov (S8, Reg Cpu.eax, Reg Cpu.eax));
    ("or al,al", Alu (Or, S8, Reg Cpu.eax, Reg Cpu.eax));
    ("add al,al", Alu (Add, S8, Reg Cpu.eax, Reg Cpu.eax));
    ("mov [eax],al", Mov (S8, at_eax, Reg Cpu.eax));
    ("add [eax],al", Alu (Add, S8, at_eax, Reg Cpu.eax));
    (* the three forms that make up 58% of the kernel's executed P4 steps *)
    ("mov eax,ebx", Mov (S32, Reg Cpu.eax, Reg Cpu.ebx));
    ("mov eax,[ebp-8]", Mov (S32, Reg Cpu.eax, at_ebp));
    ("mov [ebp-8],eax", Mov (S32, at_ebp, Reg Cpu.eax));
  ]

let page_up n = (n + Memory.page_size - 1) / Memory.page_size * Memory.page_size

(* A CPU at [code_base] over [code], EAX pointing at a writable data page
   and AL odd, so the ALU forms compute changing results, and EBP a frame
   pointer into the same page. *)
let machine code =
  let mem = Memory.create () in
  Memory.map mem ~addr:code_base ~size:(page_up (String.length code + 16)) ~perm:Memory.perm_rwx;
  Memory.map mem ~addr:data_addr ~size:Memory.page_size ~perm:Memory.perm_rw;
  Memory.blit_string mem ~addr:code_base code;
  let cpu = Cpu.create ~mem ~stop_addr:0xFFFF0000 in
  cpu.Cpu.eip <- code_base;
  cpu.Cpu.regs.(Cpu.eax) <- data_addr lor 0x13;
  cpu.Cpu.regs.(Cpu.ebp) <- data_addr + 0x100;
  cpu

let loop_code insn =
  let body = String.concat "" (List.init 64 (fun _ -> Encode.insn insn)) in
  body ^ Encode.insn (Insn.Jmp_rel (-(String.length body + 5)))

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("opcost: " ^ s); exit 1) fmt

let run_steps cpu n =
  let left = ref n in
  while !left > 0 do
    let k = min 128 !left in
    (match Cpu.run cpu ~max_steps:k with
    | Cpu.Retired -> ()
    | _ -> fail "unexpected event at %08x" cpu.Cpu.eip);
    left := !left - Cpu.run_retired cpu
  done

let step_steps cpu n =
  for _ = 1 to n do
    match Cpu.step cpu with
    | Cpu.Retired -> ()
    | _ -> fail "unexpected event at %08x" cpu.Cpu.eip
  done

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* ns per step over [steps], the fastest of seven passes after a warm-up
   pass; [pass ()] sets up one pass and returns the function that runs it. *)
let cost ~steps pass =
  ignore (time (pass ()));
  let t = List.fold_left min infinity (List.init 7 (fun _ -> time (pass ()))) in
  t *. 1e9 /. float_of_int steps

(* Wild passes warm the decode miss streak past its bypass threshold
   (256 misses) before the timed steps. *)
let wild_warm = 1024

let () =
  let steps = ref 500_000 in
  Arg.parse
    [ ("--steps", Arg.Set_int steps, "N  steps per timed pass (default 500000)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "opcost.exe [--steps N]";
  let steps = max 1 !steps in
  Printf.printf "ns/step over %d steps (fastest of 7 passes)\n" steps;
  Printf.printf "%-16s %9s %9s %9s\n" "form" "step" "run" "wild";
  List.iter
    (fun (name, insn) ->
      let loop = loop_code insn in
      let looped drive () =
        let cpu = machine loop in
        fun () -> drive cpu steps
      in
      let wild_code =
        String.concat "" (List.init (wild_warm + steps) (fun _ -> Encode.insn insn))
      in
      let wild () =
        let cpu = machine wild_code in
        run_steps cpu wild_warm;
        fun () -> run_steps cpu steps
      in
      Printf.printf "%-16s %9.1f %9.1f %9.1f\n%!" name
        (cost ~steps (looped step_steps))
        (cost ~steps (looped run_steps))
        (cost ~steps wild))
    forms
