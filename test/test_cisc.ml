(* Unit and property tests for the P4-like CPU: decoder, encoder round trip,
   interpreter semantics, exception model and the Figure 14 decode-resync
   phenomenon. *)

open Ferrite_machine
open Ferrite_cisc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- helpers ----------------------------------------------------------- *)

let code_base = 0xC0100000
let stack_top = 0xC0804000
let stop_addr = 0xFFFF0000

let machine_of_bytes code =
  let mem = Memory.create () in
  Memory.map mem ~addr:code_base ~size:0x4000 ~perm:Memory.perm_rx;
  Memory.map mem ~addr:(stack_top - 0x2000) ~size:0x2000 ~perm:Memory.perm_rwx;
  Memory.map mem ~addr:0xC0400000 ~size:0x4000 ~perm:Memory.perm_rwx;
  Memory.blit_string mem ~addr:code_base code;
  let cpu = Cpu.create ~mem ~stop_addr in
  cpu.Cpu.eip <- code_base;
  cpu.Cpu.regs.(Cpu.esp) <- stack_top;
  cpu

let assemble insns = String.concat "" (List.map Encode.insn insns)

(* Run until Stopped/Faulted or fuel runs out. *)
let run ?(fuel = 10_000) cpu =
  let rec go n last =
    if n = 0 then last
    else
      match Cpu.step cpu with
      | Cpu.Retired | Cpu.Halted | Cpu.Hit_dbp _ -> go (n - 1) Cpu.Retired
      | (Cpu.Stopped | Cpu.Faulted _) as r -> r
      | Cpu.Hit_ibp -> go n Cpu.Retired (* not used in these tests *)
  in
  go fuel Cpu.Retired

let run_insns ?fuel insns =
  let cpu = machine_of_bytes (assemble (insns @ [ Insn.Ret ])) in
  Cpu.push32 cpu stop_addr;
  let r = run ?fuel cpu in
  (cpu, r)

let expect_stopped (_, r) =
  match r with
  | Cpu.Stopped -> ()
  | Cpu.Faulted e -> Alcotest.failf "unexpected fault: %s" (Exn.to_string e)
  | _ -> Alcotest.fail "did not stop"

(* --- flag semantics vectors ---------------------------------------------- *)

(* classic IA-32 flag test vectors: (a, b, sum_cf, sum_of, sub_cf, sub_of) *)
let flag_vectors =
  [
    (0xFFFFFFFF, 0x00000001, true, false, false, false);
    (0x7FFFFFFF, 0x00000001, false, true, false, false);
    (0x80000000, 0x80000000, true, true, false, false);
    (0x00000000, 0x00000001, false, false, true, false);
    (0x80000000, 0x00000001, false, false, false, true);
    (0x00000005, 0x00000003, false, false, false, false);
  ]

let run_flag_probe insns =
  let cpu = machine_of_bytes (assemble (insns @ [ Insn.Ret ])) in
  Cpu.push32 cpu stop_addr;
  (match run cpu with
  | Cpu.Stopped -> ()
  | _ -> Alcotest.fail "flag probe did not stop");
  cpu

let test_flags_add_sub_vectors () =
  let open Insn in
  List.iter
    (fun (a, b, scf, sof, dcf, dof) ->
      let cpu =
        run_flag_probe [ Mov (S32, Reg 0, Imm a); Alu (Add, S32, Reg 0, Imm b) ]
      in
      check_bool (Printf.sprintf "add cf %08x+%08x" a b) scf (Cpu.getf cpu Cpu.flag_cf);
      check_bool (Printf.sprintf "add of %08x+%08x" a b) sof (Cpu.getf cpu Cpu.flag_of);
      let cpu =
        run_flag_probe [ Mov (S32, Reg 0, Imm a); Alu (Sub, S32, Reg 0, Imm b) ]
      in
      check_bool (Printf.sprintf "sub cf %08x-%08x" a b) dcf (Cpu.getf cpu Cpu.flag_cf);
      check_bool (Printf.sprintf "sub of %08x-%08x" a b) dof (Cpu.getf cpu Cpu.flag_of))
    flag_vectors

let test_flags_logic_clear_cf_of () =
  let open Insn in
  let cpu =
    run_flag_probe
      [
        Mov (S32, Reg 0, Imm 0xFFFFFFFF);
        Alu (Add, S32, Reg 0, Imm 1);  (* sets CF *)
        Alu (And, S32, Reg 0, Imm 0xFF);  (* logic must clear CF/OF *)
      ]
  in
  check_bool "and clears cf" false (Cpu.getf cpu Cpu.flag_cf);
  check_bool "and clears of" false (Cpu.getf cpu Cpu.flag_of)

let test_flags_inc_preserves_cf () =
  let open Insn in
  let cpu =
    run_flag_probe
      [
        Mov (S32, Reg 0, Imm 0xFFFFFFFF);
        Alu (Add, S32, Reg 0, Imm 1);  (* CF := 1 *)
        Inc (S32, Reg 0);  (* INC must not touch CF *)
      ]
  in
  check_bool "inc preserves cf" true (Cpu.getf cpu Cpu.flag_cf)

(* Every arithmetic-flag writer at every operand size, from an EFLAGS that
   has IF, DF, NT, AF and reserved bit 1 set: the writer must leave those
   bits as they were and set exactly the named flags among CF, PF, ZF, SF
   and OF. The expected flags are worked out by hand from the IA-32 rules.
   Where the model departs from them, the vectors pin the model: shifts
   leave OF as it was. The SBB vectors avoid the other departure (its CF
   ignores the borrow-in), which the reference property covers. *)

let flag_pf = 2

let flag_letters =
  [ ('C', Cpu.flag_cf); ('P', flag_pf); ('Z', Cpu.flag_zf); ('S', Cpu.flag_sf); ('O', Cpu.flag_of) ]

let flags_of s = String.fold_left (fun f c -> f lor (1 lsl List.assoc c flag_letters)) 0 s
let arith_flags = flags_of "CPZSO"

let letters_of f =
  String.concat ""
    (List.filter_map
       (fun (c, bit) -> if f land (1 lsl bit) <> 0 then Some (String.make 1 c) else None)
       flag_letters)

let flags_base =
  0x2 lor (1 lsl 4) lor (1 lsl Cpu.flag_if) lor (1 lsl Cpu.flag_df) lor (1 lsl Cpu.flag_nt)

(* The EFLAGS after [insn] runs once from [eflags], with EAX, EBX, ECX set. *)
let eflags_after insn ~eax ~ebx ~ecx eflags =
  let cpu = machine_of_bytes (assemble [ insn; Insn.Ret ]) in
  Cpu.push32 cpu stop_addr;
  cpu.Cpu.regs.(Cpu.eax) <- eax;
  cpu.Cpu.regs.(Cpu.ebx) <- ebx;
  cpu.Cpu.regs.(Cpu.ecx) <- ecx;
  cpu.Cpu.eflags <- eflags;
  (match run cpu with
  | Cpu.Stopped -> ()
  | _ -> Alcotest.fail "flag probe did not stop");
  cpu.Cpu.eflags

let flag_cases =
  let open Insn in
  let alu op size = Alu (op, size, Reg 0, Reg 3) in
  let sh op size k = Shift (op, size, Reg 0, Count_imm k) in
  (* name, instruction, EAX, EBX, ECX, flags before, flags after *)
  [
    ("add8 ff+01", alu Add S8, 0xFF, 0x01, 0, "", "CPZ");
    ("add8 7f+01", alu Add S8, 0x7F, 0x01, 0, "", "SO");
    ("add16 8000+8000", alu Add S16, 0x8000, 0x8000, 0, "", "CPZO");
    ("add16 1234+0001", alu Add S16, 0x1234, 0x0001, 0, "CZSO", "P");
    ("add32 ffffffff+1", alu Add S32, 0xFFFFFFFF, 1, 0, "", "CPZ");
    ("add32 7fffffff+1", alu Add S32, 0x7FFFFFFF, 1, 0, "", "PSO");
    ("adc8 7f+00+1", alu Adc S8, 0x7F, 0x00, 0, "C", "SO");
    ("adc16 ffff+0000+1", alu Adc S16, 0xFFFF, 0, 0, "C", "CPZ");
    ("adc32 1+2+1", alu Adc S32, 1, 2, 0, "C", "");
    ("adc32 fffffffe+1+0", alu Adc S32, 0xFFFFFFFE, 1, 0, "", "PS");
    ("sub8 00-01", alu Sub S8, 0, 1, 0, "", "CPS");
    ("sub8 80-01", alu Sub S8, 0x80, 1, 0, "", "O");
    ("sub16 1234-1234", alu Sub S16, 0x1234, 0x1234, 0, "CSO", "PZ");
    ("sub32 80000000-1", alu Sub S32, 0x80000000, 1, 0, "", "PO");
    ("sub32 5-3", alu Sub S32, 5, 3, 0, "CPZSO", "");
    ("sbb8 10-01-1", alu Sbb S8, 0x10, 1, 0, "C", "");
    ("sbb16 0000-0001-1", alu Sbb S16, 0, 1, 0, "C", "CS");
    ("sbb32 80000000-0-1", alu Sbb S32, 0x80000000, 0, 0, "C", "PO");
    ("cmp8 01-02", alu Cmp S8, 1, 2, 0, "", "CPS");
    ("cmp32 7fffffff-ffffffff", alu Cmp S32, 0x7FFFFFFF, 0xFFFFFFFF, 0, "", "CPSO");
    ("neg8 80", Grp3 (Neg, S8, Reg 0), 0x80, 0, 0, "", "CSO");
    ("neg16 0", Grp3 (Neg, S16, Reg 0), 0, 0, 0, "CSO", "PZ");
    ("neg32 1", Grp3 (Neg, S32, Reg 0), 1, 0, 0, "", "CPS");
    ("and8 f0&0f", alu And S8, 0xF0, 0x0F, 0, "CO", "PZ");
    ("or16 8000|0001", alu Or S16, 0x8000, 1, 0, "CO", "S");
    ("xor32 ffffffff^f", alu Xor S32, 0xFFFFFFFF, 0xF, 0, "CO", "PS");
    ("test32 80000000&80000001", Test (S32, Reg 0, Reg 3), 0x80000000, 0x80000001, 0, "CZO", "PS");
    ("test8 03&03", Test (S8, Reg 0, Reg 3), 3, 3, 0, "CO", "P");
    ("inc8 ff keeps CF set", Inc (S8, Reg 0), 0xFF, 0, 0, "C", "CPZ");
    ("inc16 7fff", Inc (S16, Reg 0), 0x7FFF, 0, 0, "", "PSO");
    ("dec32 0 keeps CF clear", Dec (S32, Reg 0), 0, 0, 0, "", "PS");
    ("dec8 80 keeps CF set", Dec (S8, Reg 0), 0x80, 0, 0, "C", "CO");
    ("shl8 81,1", sh Shl S8 1, 0x81, 0, 0, "", "C");
    ("shl32 40000000,2", sh Shl S32 2, 0x40000000, 0, 0, "", "CPZ");
    ("shr16 8001,1", sh Shr S16 1, 0x8001, 0, 0, "", "CP");
    ("sar8 80,7 keeps OF", sh Sar S8 7, 0x80, 0, 0, "O", "PSO");
    ("sar32 fffffffe,1", sh Sar S32 1, 0xFFFFFFFE, 0, 0, "C", "PS");
    ("shl32 count 0", sh Shl S32 0, 0x12345678, 0, 0, "CZO", "CZO");
    ("shr8 cl=32 is count 0", Shift (Shr, S8, Reg 0, Count_cl), 0x80, 0, 32, "PS", "PS");
    ("mul8 10*10", Grp3 (Mul, S8, Reg 3), 0x10, 0x10, 0, "Z", "CZO");
    ("mul8 0f*11", Grp3 (Mul, S8, Reg 3), 0x0F, 0x11, 0, "CO", "");
    ("mul16 ffff*2", Grp3 (Mul, S16, Reg 3), 0xFFFF, 2, 0, "", "CO");
    ("mul16 ffff*1", Grp3 (Mul, S16, Reg 3), 0xFFFF, 1, 0, "CO", "");
    ("mul32 10000*10000", Grp3 (Mul, S32, Reg 3), 0x10000, 0x10000, 0, "S", "CSO");
    ("mul32 ffffffff*1", Grp3 (Mul, S32, Reg 3), 0xFFFFFFFF, 1, 0, "CO", "");
    ("imul8 80*01 fits", Grp3 (Imul1, S8, Reg 3), 0x80, 0x01, 0, "CO", "");
    ("imul8 80*ff", Grp3 (Imul1, S8, Reg 3), 0x80, 0xFF, 0, "", "CO");
    ("imul16 7fff*2", Grp3 (Imul1, S16, Reg 3), 0x7FFF, 2, 0, "", "CO");
    ("imul16 c000*2 fits", Grp3 (Imul1, S16, Reg 3), 0xC000, 2, 0, "CO", "");
    ("imul32 80000000*ffffffff", Grp3 (Imul1, S32, Reg 3), 0x80000000, 0xFFFFFFFF, 0, "", "CO");
    ("imul32 8000*ffff0000 fits", Grp3 (Imul1, S32, Reg 3), 0x8000, 0xFFFF0000, 0, "CO", "");
    ("imul2 40000000*2", Imul2 (0, Reg 3), 0x40000000, 2, 0, "", "CO");
    ("imul2 c0000000*2 fits", Imul2 (0, Reg 3), 0xC0000000, 2, 0, "CO", "");
    ("imul2 80000000*80000000", Imul2 (0, Reg 3), 0x80000000, 0x80000000, 0, "", "CO");
    ("imul3 10000*8000", Imul3 (0, Reg 3, 0x8000), 0, 0x10000, 0, "", "CO");
    ("imul3 10000*-8000 fits", Imul3 (0, Reg 3, 0xFFFF8000), 0, 0x10000, 0, "CO", "");
  ]

let test_flag_cases () =
  List.iter
    (fun (name, insn, eax, ebx, ecx, before, after) ->
      let f = eflags_after insn ~eax ~ebx ~ecx (flags_base lor flags_of before) in
      Alcotest.(check string) (name ^ " flags") after (letters_of f);
      check_int (name ^ " other bits") flags_base (f land lnot arith_flags))
    flag_cases

(* The flag writers as they were before EFLAGS was written once per
   instruction: each flag through its own read-modify-write, and the
   product tests in Int64. The property below holds the CPU to it. *)
module Ref_flags = struct
  open Insn

  let setf f bit v =
    (if v then f lor (1 lsl bit) else f land lnot (1 lsl bit)) land 0xFFFFFFFF

  let bits = function S8 -> 8 | S16 -> 16 | S32 -> 32
  let mask size = (1 lsl bits size) - 1
  let sign_bit size = 1 lsl (bits size - 1)

  let parity_even v =
    let v = v land 0xFF in
    let v = v lxor (v lsr 4) in
    let v = v lxor (v lsr 2) in
    let v = v lxor (v lsr 1) in
    v land 1 = 0

  let szp f size r =
    let f = setf f Cpu.flag_zf (r land mask size = 0) in
    let f = setf f Cpu.flag_sf (r land sign_bit size <> 0) in
    setf f flag_pf (parity_even r)

  let logic f size r = szp (setf (setf f Cpu.flag_cf false) Cpu.flag_of false) size r

  let add f size a b r =
    let f = setf f Cpu.flag_cf (r > mask size) in
    let sb = sign_bit size in
    let f = setf f Cpu.flag_of (a land sb = b land sb && r land sb <> a land sb) in
    szp f size r

  let sub f size a b r =
    let f = setf f Cpu.flag_cf (a < b) in
    let sb = sign_bit size in
    let f = setf f Cpu.flag_of (a land sb <> b land sb && r land sb <> a land sb) in
    szp f size r

  let overflow f v = setf (setf f Cpu.flag_cf v) Cpu.flag_of v

  let sext size v =
    let v = v land mask size in
    if v land sign_bit size <> 0 then v - (mask size + 1) else v

  (* Signed product [p] fits [size] bits. *)
  let fits size p =
    let lim = Int64.of_int (sign_bit size) in
    Int64.compare p (Int64.neg lim) >= 0 && Int64.compare p lim < 0

  (* EFLAGS after [insn] (as [flag_case_gen] draws it) from [f]. *)
  let run insn ~eax ~ebx ~ecx f =
    let cin = if f land (1 lsl Cpu.flag_cf) <> 0 then 1 else 0 in
    match insn with
    | Alu (op, size, Reg 0, Reg 3) -> (
      let m = mask size in
      let a = eax land m and b = ebx land m in
      match op with
      | Add -> add f size a b (a + b)
      | Adc -> add f size a b (a + b + cin)
      | Sub | Cmp -> sub f size a b ((a - b) land m)
      | Sbb -> sub f size a b ((a - b - cin) land m)
      | And -> logic f size (a land b)
      | Or -> logic f size (a lor b)
      | Xor -> logic f size (a lxor b))
    | Test (size, Reg 0, Reg 3) -> logic f size (eax land ebx land mask size)
    | Grp3 (Neg, size, Reg 0) ->
      let a = eax land mask size in
      sub f size 0 a (-a land mask size)
    | Inc (size, Reg 0) ->
      let a = eax land mask size in
      let cf = f land (1 lsl Cpu.flag_cf) <> 0 in
      setf (add f size a 1 ((a + 1) land mask size)) Cpu.flag_cf cf
    | Dec (size, Reg 0) ->
      let a = eax land mask size in
      let cf = f land (1 lsl Cpu.flag_cf) <> 0 in
      setf (sub f size a 1 ((a - 1) land mask size)) Cpu.flag_cf cf
    | Shift (op, size, Reg 0, count) ->
      let n = (match count with Count_imm k -> k | Count_cl -> ecx) land 31 in
      if n = 0 then f
      else begin
        let a = eax land mask size and w = bits size in
        let r, cf =
          match op with
          | Shl -> ((a lsl n) land mask size, (a lsr (w - n)) land 1 = 1)
          | Shr -> (a lsr n, (a lsr (n - 1)) land 1 = 1)
          | Sar -> (sext size a asr n land mask size, (sext size a asr (n - 1)) land 1 = 1)
          | _ -> invalid_arg "Ref_flags.run: shift"
        in
        szp (setf f Cpu.flag_cf cf) size r
      end
    | Grp3 (Mul, size, Reg 3) ->
      let p = Int64.mul (Int64.of_int (eax land mask size)) (Int64.of_int (ebx land mask size)) in
      overflow f (Int64.shift_right_logical p (bits size) <> 0L)
    | Grp3 (Imul1, size, Reg 3) ->
      overflow f
        (not (fits size (Int64.mul (Int64.of_int (sext size eax)) (Int64.of_int (sext size ebx)))))
    | Imul2 (0, Reg 3) ->
      overflow f (not (fits S32 (Int64.mul (Int64.of_int (sext S32 eax)) (Int64.of_int (sext S32 ebx)))))
    | Imul3 (0, Reg 3, k) ->
      overflow f (not (fits S32 (Int64.mul (Int64.of_int (sext S32 ebx)) (Int64.of_int (sext S32 k)))))
    | _ -> invalid_arg "Ref_flags.run"
end

(* An instruction over EAX/EBX (ECX the shift count), its operands, and a
   starting EFLAGS: any 32-bit value, its CF the carry-in. *)
let flag_case_gen =
  let open QCheck.Gen in
  let open Insn in
  let word = map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xFFFF) (int_bound 0xFFFF) in
  let edge =
    oneofl [ 0; 1; 2; 0x7F; 0x80; 0xFF; 0x7FFF; 0x8000; 0xFFFF; 0x7FFFFFFF; 0x80000000; 0xFFFFFFFF ]
  in
  let operand = frequency [ (1, edge); (2, word) ] in
  let size = oneofl [ S8; S16; S32 ] in
  let insn =
    frequency
      [
        ( 8,
          map2
            (fun op s -> Alu (op, s, Reg 0, Reg 3))
            (oneofl [ Add; Adc; Sub; Sbb; Cmp; And; Or; Xor ])
            size );
        (1, map (fun s -> Test (s, Reg 0, Reg 3)) size);
        (1, map (fun s -> Grp3 (Neg, s, Reg 0)) size);
        (1, map (fun s -> Inc (s, Reg 0)) size);
        (1, map (fun s -> Dec (s, Reg 0)) size);
        ( 3,
          map3
            (fun op s k -> Shift (op, s, Reg 0, k))
            (oneofl [ Shl; Shr; Sar ])
            size
            (frequency [ (3, map (fun k -> Count_imm k) (int_bound 33)); (1, return Count_cl) ]) );
        (2, map2 (fun g s -> Grp3 (g, s, Reg 3)) (oneofl [ Mul; Imul1 ]) size);
        (1, return (Imul2 (0, Reg 3)));
        (1, map (fun k -> Imul3 (0, Reg 3, k)) operand);
      ]
  in
  let eflags = map2 (fun f cin -> (f land lnot 1) lor Bool.to_int cin) word bool in
  triple insn (triple operand operand (int_bound 40)) eflags

let prop_flags_match_reference =
  let print (insn, (eax, ebx, ecx), f) =
    Printf.sprintf "%s eax=%08x ebx=%08x ecx=%d eflags=%08x"
      (String.concat " "
         (List.map
            (fun c -> Printf.sprintf "%02x" (Char.code c))
            (List.of_seq (String.to_seq (Encode.insn insn)))))
      eax ebx ecx f
  in
  QCheck.Test.make ~name:"flag writers = per-bit reference" ~count:2000
    (QCheck.make ~print flag_case_gen)
    (fun (insn, (eax, ebx, ecx), f) ->
      let got = eflags_after insn ~eax ~ebx ~ecx f in
      let want = Ref_flags.run insn ~eax ~ebx ~ecx f in
      got = want
      || QCheck.Test.fail_reportf "eflags %08x, reference %08x" got want)

let test_subword_registers_ah () =
  let open Insn in
  (* AH/CH/DH/BH encoding: writing AH must not clobber AL *)
  let cpu =
    run_flag_probe
      [
        Mov (S32, Reg 0, Imm 0x11223344);
        Mov (S8, Reg 4 (* AH *), Imm 0xAB);
      ]
  in
  check_int "ah write" 0x1122AB44 cpu.Cpu.regs.(0)

(* --- decoder ------------------------------------------------------------ *)

let decode_bytes bytes =
  let fetch i = Char.code bytes.[i] in
  Decode.decode ~fetch 0

let test_decode_basic () =
  (* mov 0x18(%ebx),%esi = 8b 73 18 *)
  let d = decode_bytes "\x8b\x73\x18" in
  check_int "length" 3 d.Insn.length;
  (match d.Insn.insn with
  | Insn.Mov (Insn.S32, Insn.Reg 6, Insn.Mem { base = Some 3; disp = 0x18; _ }) -> ()
  | _ -> Alcotest.fail "wrong decode");
  (* the paper's Figure 13 instruction: cmpl $0xdead4ead,0xc0375bc4 *)
  let d = decode_bytes "\x81\x3d\xc4\x5b\x37\xc0\xad\x4e\xad\xde" in
  (match d.Insn.insn with
  | Insn.Alu (Insn.Cmp, Insn.S32, Insn.Mem { base = None; disp = 0xC0375BC4; _ }, Insn.Imm 0xDEAD4EAD)
    -> ()
  | _ -> Alcotest.fail "cmpl decode");
  check_int "cmpl length" 10 d.Insn.length

let test_decode_ud2 () =
  let d = decode_bytes "\x0f\x0b" in
  check_bool "ud2" true (d.Insn.insn = Insn.Ud2)

let test_decode_sib () =
  (* lea 0x5b(%esp,%esi,8),%esp = 8d 64 f4 5b — the corrupted instruction in
     the paper's Figure 7. *)
  let d = decode_bytes "\x8d\x64\xf4\x5b" in
  (match d.Insn.insn with
  | Insn.Lea (4, { base = Some 4; index = Some (6, 8); disp = 0x5B; _ }) -> ()
  | _ -> Alcotest.fail "sib decode");
  check_int "length" 4 d.Insn.length

let test_decode_undefined () =
  match decode_bytes "\x0f\xff" with
  | exception Decode.Undefined_opcode -> ()
  | _ -> Alcotest.fail "expected undefined opcode"

let test_decode_prefixes () =
  let d = decode_bytes "\x66\xb8\x34\x12" in
  (match d.Insn.insn with
  | Insn.Mov (Insn.S16, Insn.Reg 0, Insn.Imm 0x1234) -> ()
  | _ -> Alcotest.fail "operand-size prefix");
  check_int "length includes prefix" 4 d.Insn.length;
  let d = decode_bytes "\x64\x8b\x03" in
  (match d.Insn.insn with
  | Insn.Mov (Insn.S32, Insn.Reg 0, Insn.Mem { seg = Some Insn.FS; _ }) -> ()
  | _ -> Alcotest.fail "fs override")

let test_figure7_resync () =
  (* Figure 7: original "lea 0xfffffff4(%ebp),%esp; pop %ebx" re-synchronises
     after a one-bit flip (0x65 -> 0x64) into "lea 0x5b(%esp,%esi,8),%esp",
     swallowing the pop. *)
  let original = "\x8d\x65\xf4\x5b\x5e\x5f" in
  let d0 = decode_bytes original in
  (match d0.Insn.insn with
  | Insn.Lea (4, { base = Some 5; disp = 0xFFFFFFF4; index = None; _ }) -> ()
  | _ -> Alcotest.fail "original lea");
  check_int "original length" 3 d0.Insn.length;
  let corrupted = "\x8d\x64\xf4\x5b\x5e\x5f" in
  let d1 = decode_bytes corrupted in
  check_int "corrupted swallows pop" 4 d1.Insn.length;
  (match d1.Insn.insn with
  | Insn.Lea (4, { base = Some 4; index = Some (6, 8); disp = 0x5B; _ }) -> ()
  | _ -> Alcotest.fail "corrupted lea")

(* --- encoder round trip -------------------------------------------------- *)

let arbitrary_insn =
  let open QCheck.Gen in
  let reg = int_bound 7 in
  let size = oneofl [ Insn.S8; Insn.S16; Insn.S32 ] in
  let mem_gen =
    let* base = opt reg in
    let* index =
      frequency
        [ (3, return None); (1, map (fun r -> Some (r, 4)) (int_bound 7)) ]
    in
    let index = match index with Some (4, _) -> None | i -> i in
    let* disp = oneofl [ 0; 0x18; 0x7F; 0x1234; 0xFFFFFFF4 ] in
    return { Insn.base; index; disp; seg = None }
  in
  let operand_rm = oneof [ map (fun r -> Insn.Reg r) reg; map (fun m -> Insn.Mem m) mem_gen ] in
  let alu = oneofl Insn.[ Add; Or; Adc; Sbb; And; Sub; Xor; Cmp ] in
  oneof
    [
      (let* op = alu and* s = size and* d = operand_rm and* r = reg in
       return (Insn.Alu (op, s, d, Insn.Reg r)));
      (let* op = alu and* s = size and* m = mem_gen and* r = reg in
       return (Insn.Alu (op, s, Insn.Reg r, Insn.Mem m)));
      (let* op = alu and* s = size and* d = operand_rm and* v = int_bound 0x7F in
       return (Insn.Alu (op, s, d, Insn.Imm v)));
      (let* s = size and* d = operand_rm and* r = reg in
       return (Insn.Mov (s, d, Insn.Reg r)));
      (let* s = size and* r = reg and* m = mem_gen in
       return (Insn.Mov (s, Insn.Reg r, Insn.Mem m)));
      (let* r = reg and* m = mem_gen in
       return (Insn.Lea (r, m)));
      (let* r = reg in
       return (Insn.Push (Insn.Reg r)));
      (let* r = reg in
       return (Insn.Pop (Insn.Reg r)));
      (let* c = oneofl Insn.[ O; B; E; NE; BE; S; L; LE; G ] and* rel = int_bound 0xFFFF in
       return (Insn.Jcc (c, rel)));
      (let* s = size and* d = operand_rm and* k = int_range 1 7 in
       return (Insn.Shift (Insn.Shl, s, d, Insn.Count_imm k)));
      return Insn.Ret;
      return Insn.Leave;
      return Insn.Ud2;
      return Insn.Nop;
      (let* r = reg in
       return (Insn.Inc (Insn.S32, Insn.Reg r)));
      (let* r = reg and* m = mem_gen in
       return (Insn.Movzx (Insn.S8, r, Insn.Mem m)));
    ]

let prop_encode_decode_roundtrip =
  QCheck.Test.make ~name:"encode/decode round trip" ~count:1000
    (QCheck.make arbitrary_insn)
    (fun i ->
      let bytes = Encode.insn i in
      let d = Decode.decode ~fetch:(fun k -> Char.code bytes.[k]) 0 in
      d.Insn.length = String.length bytes
      &&
      (* Compare modulo immediate/displacement masking per operand size. *)
      Disasm.insn d.Insn.insn = Disasm.insn i)

let prop_decode_disasm_total =
  (* any byte string either raises Undefined_opcode or yields an instruction
     the disassembler can render — the crash-dump path must never fail *)
  QCheck.Test.make ~name:"decode+disasm never crash on random bytes" ~count:2000
    QCheck.(string_of_size (QCheck.Gen.int_range 15 20))
    (fun bytes ->
      match Decode.decode ~fetch:(fun i -> Char.code bytes.[i mod String.length bytes]) 0 with
      | exception Decode.Undefined_opcode -> true
      | exception Invalid_argument _ -> true
      | d -> String.length (Disasm.insn d.Insn.insn) > 0 && d.Insn.length >= 1 && d.Insn.length <= 15)

let prop_decode_length_positive =
  QCheck.Test.make ~name:"decoded length consumes the stream" ~count:2000
    QCheck.(string_of_size (QCheck.Gen.return 15))
    (fun bytes ->
      match Decode.decode ~fetch:(fun i -> Char.code bytes.[i mod 15]) 0 with
      | exception _ -> true
      | d -> d.Insn.length > 0)

(* --- interpreter semantics ----------------------------------------------- *)

let test_exec_arith () =
  let open Insn in
  let cpu, r =
    run_insns
      [
        Mov (S32, Reg 0, Imm 10);
        Mov (S32, Reg 3, Imm 32);
        Alu (Add, S32, Reg 0, Reg 3);
      ]
  in
  expect_stopped (cpu, r);
  check_int "add result" 42 cpu.Cpu.regs.(0)

let test_exec_flags_and_jcc () =
  let open Insn in
  (* if (5 - 5 == 0) eax = 1 else eax = 2 — via cmp/jne *)
  let cpu, r =
    run_insns
      [
        Mov (S32, Reg 1, Imm 5);
        Alu (Cmp, S32, Reg 1, Imm 5);
        Jcc (NE, Encode.length (Mov (S32, Reg 0, Imm 1)) + Encode.length (Jmp_rel 0));
        Mov (S32, Reg 0, Imm 1);
        Jmp_rel (Encode.length (Mov (S32, Reg 0, Imm 2)));
        Mov (S32, Reg 0, Imm 2);
      ]
  in
  expect_stopped (cpu, r);
  check_int "taken branch" 1 cpu.Cpu.regs.(0)

let test_exec_memory_and_subword () =
  let open Insn in
  let data = 0xC0400000 in
  let cpu, r =
    run_insns
      [
        Mov (S32, Reg 3, Imm data);
        Mov (S32, Mem (mem ~base:3 0), Imm 0x11223344);
        Mov (S8, Reg 1, Mem (mem ~base:3 1));  (* cl = 0x33 (little endian) *)
        Movzx (S16, 2, Mem (mem ~base:3 0));  (* edx = 0x3344 *)
      ]
  in
  expect_stopped (cpu, r);
  check_int "byte load" 0x33 (cpu.Cpu.regs.(1) land 0xFF);
  check_int "movzx16" 0x3344 cpu.Cpu.regs.(2)

let test_exec_push_pop_call () =
  let open Insn in
  let body = [ Mov (S32, Reg 0, Imm 7); Push (Reg 0); Pop (Reg 2) ] in
  let cpu, r = run_insns body in
  expect_stopped (cpu, r);
  check_int "pop" 7 cpu.Cpu.regs.(2);
  (* the final RET consumed the stop address the harness pushed *)
  check_int "esp balanced" stack_top cpu.Cpu.regs.(Cpu.esp)

let test_exec_div_by_zero () =
  let open Insn in
  let _, r = run_insns [ Mov (S32, Reg 0, Imm 1); Mov (S32, Reg 1, Imm 0); Grp3 (Div, S32, Reg 1) ] in
  match r with
  | Cpu.Faulted Exn.Divide_error -> ()
  | _ -> Alcotest.fail "expected #DE"

let test_exec_null_deref () =
  let open Insn in
  let _, r = run_insns [ Mov (S32, Reg 0, Imm 8); Mov (S32, Reg 1, Mem (mem ~base:0 0)) ] in
  match r with
  | Cpu.Faulted (Exn.Page_fault { addr = 8; write = false; _ }) -> ()
  | _ -> Alcotest.fail "expected #PF at 8"

let test_exec_write_to_code () =
  let open Insn in
  let _, r =
    run_insns [ Mov (S32, Reg 0, Imm code_base); Mov (S32, Mem (mem ~base:0 0), Imm 1) ]
  in
  match r with
  | Cpu.Faulted (Exn.General_protection _) -> ()
  | _ -> Alcotest.fail "expected #GP on write to text"

let test_exec_ud2 () =
  let _, r = run_insns [ Insn.Ud2 ] in
  match r with
  | Cpu.Faulted Exn.Invalid_opcode -> ()
  | _ -> Alcotest.fail "expected #UD"

let test_exec_bound () =
  let open Insn in
  let data = 0xC0400000 in
  let _, r =
    run_insns
      [
        Mov (S32, Reg 3, Imm data);
        Mov (S32, Mem (mem ~base:3 0), Imm 0);
        Mov (S32, Mem (mem ~base:3 4), Imm 10);
        Mov (S32, Reg 0, Imm 50);
        Bound (0, mem ~base:3 0);
      ]
  in
  match r with
  | Cpu.Faulted Exn.Bounds -> ()
  | _ -> Alcotest.fail "expected #BR"

let test_exec_iret_nt () =
  let open Insn in
  (* Setting NT then IRET must raise #TS (the paper's EFLAGS.NT scenario). *)
  let cpu = machine_of_bytes (assemble [ Iret ]) in
  Cpu.push32 cpu 0x202;  (* eflags *)
  Cpu.push32 cpu Cpu.selector_kernel_cs;
  Cpu.push32 cpu stop_addr;
  Cpu.setf cpu Cpu.flag_nt true;
  (match run cpu with
  | Cpu.Faulted Exn.Invalid_tss -> ()
  | _ -> Alcotest.fail "expected #TS")

let test_exec_iret_ok () =
  let open Insn in
  let cpu = machine_of_bytes (assemble [ Iret ]) in
  Cpu.push32 cpu 0x202;
  Cpu.push32 cpu Cpu.selector_kernel_cs;
  Cpu.push32 cpu stop_addr;
  (match run cpu with
  | Cpu.Stopped -> ()
  | Cpu.Faulted e -> Alcotest.failf "fault: %s" (Exn.to_string e)
  | _ -> Alcotest.fail "no stop")

let test_exec_rep_movs () =
  let open Insn in
  let data = 0xC0400000 in
  let cpu = machine_of_bytes
      (assemble
         [
           Mov (S32, Reg Cpu.esi, Imm data);
           Mov (S32, Reg Cpu.edi, Imm (data + 0x100));
           Mov (S32, Reg Cpu.ecx, Imm 0x40);
         ]
      ^ Encode.insn ~rep:true (Movs S32)
      ^ Encode.insn Ret)
  in
  Cpu.push32 cpu stop_addr;
  Memory.poke32_le cpu.Cpu.mem (data + 0x3C) 0xABCD1234;
  (match run cpu with
  | Cpu.Stopped -> ()
  | _ -> Alcotest.fail "rep movs did not finish");
  check_int "copied" 0xABCD1234 (Memory.peek32_le cpu.Cpu.mem (data + 0x100 + 0x3C));
  check_int "ecx drained" 0 cpu.Cpu.regs.(Cpu.ecx)

let test_breakpoints () =
  let open Insn in
  let code = assemble [ Nop; Mov (S32, Reg 0, Imm 5); Ret ] in
  let cpu = machine_of_bytes code in
  Cpu.push32 cpu stop_addr;
  Debug_regs.set_instruction_bp cpu.Cpu.dr (code_base + 1);
  (match Cpu.step cpu with
  | Cpu.Retired -> ()
  | _ -> Alcotest.fail "nop should retire");
  (match Cpu.step cpu with
  | Cpu.Hit_ibp -> ()
  | _ -> Alcotest.fail "expected ibp before mov");
  check_int "nothing executed" 0 cpu.Cpu.regs.(0);
  (match Cpu.step ~skip_ibp:true cpu with
  | Cpu.Retired -> ()
  | _ -> Alcotest.fail "skip_ibp executes");
  check_int "mov executed" 5 cpu.Cpu.regs.(0)

let test_data_breakpoint_after_access () =
  let open Insn in
  let data = 0xC0400000 in
  let code = assemble [ Mov (S32, Reg 3, Imm data); Mov (S32, Reg 0, Mem (mem ~base:3 0)); Ret ] in
  let cpu = machine_of_bytes code in
  Cpu.push32 cpu stop_addr;
  Memory.poke32_le cpu.Cpu.mem data 99;
  Debug_regs.set_data_bp cpu.Cpu.dr ~addr:data ~len:4;
  (match Cpu.step cpu with Cpu.Retired -> () | _ -> Alcotest.fail "mov imm");
  (match Cpu.step cpu with
  | Cpu.Hit_dbp { is_write = false; addr } ->
    check_int "watch addr" data addr;
    check_int "load completed before report" 99 cpu.Cpu.regs.(0)
  | _ -> Alcotest.fail "expected dbp after load")

(* Read-modify-write memory destinations: the read and the write stay two
   accesses, in that order, so a write can fault after its read succeeded,
   a read fault reports [write = false], and a watchpoint reports the read
   once the write has landed. *)

let rmw_data = 0xC0400000

let rmw_step insns =
  let cpu = machine_of_bytes (assemble (insns @ [ Insn.Ret ])) in
  Cpu.push32 cpu stop_addr;
  let rec go n = if n = 0 then Cpu.step cpu else (ignore (Cpu.step cpu); go (n - 1)) in
  (cpu, go)

let test_rmw_write_faults_after_read () =
  let open Insn in
  (* text is readable but not writable: the add reads it, then its write #GPs *)
  let target = code_base + 0x40 in
  let cpu, go = rmw_step [ Mov (S32, Reg 3, Imm target); Alu (Add, S32, Mem (mem ~base:3 0), Reg 3) ] in
  let before = Memory.peek32_le cpu.Cpu.mem target in
  (match go 1 with
  | Cpu.Faulted (Exn.General_protection { addr = Some a }) -> check_int "#GP at the write" target a
  | _ -> Alcotest.fail "expected #GP on the write");
  check_int "text unchanged" before (Memory.peek32_le cpu.Cpu.mem target);
  check_int "no cr2" 0 cpu.Cpu.cr2;
  (* a dword straddling a writable and a read-only page: both reads succeed,
     the write lands its first two bytes, then #GPs on the read-only page *)
  let cpu, go =
    rmw_step
      [ Mov (S32, Reg 3, Imm (rmw_data + 0xFFE)); Inc (S32, Mem (mem ~base:3 0)) ]
  in
  Memory.poke32_le cpu.Cpu.mem (rmw_data + 0xFFC) 0xFFFF0000;
  Memory.set_perm cpu.Cpu.mem ~addr:(rmw_data + 0x1000) ~size:0x1000 ~perm:Memory.perm_ro;
  (match go 1 with
  | Cpu.Faulted (Exn.General_protection { addr = Some a }) ->
    check_int "#GP on the read-only page" (rmw_data + 0x1000) a
  | _ -> Alcotest.fail "expected #GP on the straddling write");
  check_int "low half written" 0 (Memory.peek32_le cpu.Cpu.mem (rmw_data + 0xFFC));
  check_int "read-only half kept" 0 (Memory.peek8 cpu.Cpu.mem (rmw_data + 0x1000))

let test_rmw_read_faults_first () =
  let open Insn in
  (* the page after the data region is unmapped: the read faults first *)
  let cpu, go =
    rmw_step
      [ Mov (S32, Reg 3, Imm (rmw_data + 0x3FFE)); Alu (Or, S32, Mem (mem ~base:3 0), Reg 3) ]
  in
  (match go 1 with
  | Cpu.Faulted (Exn.Page_fault { addr; write; _ }) ->
    check_int "#PF at the unmapped byte" (rmw_data + 0x4000) addr;
    check_bool "on the read" false write
  | _ -> Alcotest.fail "expected #PF on the read");
  check_int "cr2 names the byte" (rmw_data + 0x4000) cpu.Cpu.cr2;
  (* an invalid FS override faults before either access *)
  let cpu, go =
    rmw_step [ Mov (S32, Reg 3, Imm rmw_data); Dec (S32, Mem (mem ~base:3 ~seg:FS 0)) ]
  in
  cpu.Cpu.fs <- 0;
  Memory.poke32_le cpu.Cpu.mem rmw_data 5;
  (match go 1 with
  | Cpu.Faulted (Exn.General_protection { addr = None }) -> ()
  | _ -> Alcotest.fail "expected #GP from the override");
  check_int "memory untouched" 5 (Memory.peek32_le cpu.Cpu.mem rmw_data)

let test_rmw_watched () =
  let open Insn in
  List.iter
    (fun (name, insn, want) ->
      let cpu, go = rmw_step [ Mov (S32, Reg 3, Imm rmw_data); insn ] in
      Memory.poke32_le cpu.Cpu.mem rmw_data 0x10;
      cpu.Cpu.regs.(1) <- 0x22;
      Debug_regs.set_data_bp cpu.Cpu.dr ~addr:rmw_data ~len:4;
      match go 1 with
      | Cpu.Hit_dbp { is_write; addr } ->
        check_int (name ^ ": watch addr") rmw_data addr;
        check_bool (name ^ ": the read is reported") false is_write;
        check_int (name ^ ": write landed before the report") want
          (Memory.peek32_le cpu.Cpu.mem rmw_data)
      | _ -> Alcotest.failf "%s: expected a data breakpoint" name)
    [
      ("add", Alu (Add, S32, Mem (mem ~base:3 0), Reg 1), 0x32);
      ("neg", Grp3 (Neg, S32, Mem (mem ~base:3 0)), 0xFFFFFFF0);
      ("shl", Shift (Shl, S32, Mem (mem ~base:3 0), Count_imm 2), 0x40);
      ("xchg", Xchg (S32, Mem (mem ~base:3 0), 1), 0x22);
    ]

let test_sysreg_cr3_latent () =
  (* A flipped CR3 register is shielded by the TLB: no immediate effect. *)
  let open Insn in
  let cpu = machine_of_bytes (assemble [ Mov (S32, Reg 0, Imm 0xC0400000); Mov (S32, Reg 1, Mem (mem ~base:0 0)); Ret ]) in
  Cpu.push32 cpu stop_addr;
  let cr3 = Array.to_list Cpu.system_registers |> List.find (fun s -> s.Cpu.sr_name = "CR3") in
  cr3.Cpu.sr_set cpu (cr3.Cpu.sr_get cpu lxor 0x1000);
  (match run cpu with
  | Cpu.Stopped -> ()
  | _ -> Alcotest.fail "register flip in CR3 must stay latent")

let test_mov_cr3_poisons () =
  (* An explicit MOV to CR3 (a TLB flush) with a corrupt base does fault. *)
  let open Insn in
  let cpu =
    machine_of_bytes
      (assemble
         [
           Mov_from_cr (3, 0);
           Alu (Xor, S32, Reg 0, Imm 0x1000);
           Mov_to_cr (3, 0);
           Mov (S32, Reg 2, Imm 0xC0400000);
           Mov (S32, Reg 1, Mem (mem ~base:2 0));
           Ret;
         ])
  in
  Cpu.push32 cpu stop_addr;
  (match run cpu with
  | Cpu.Faulted (Exn.Page_fault _) -> ()
  | _ -> Alcotest.fail "reloaded corrupt CR3 must fault")

let test_sysreg_count () =
  check_bool "about 20 P4 system registers" true
    (Array.length Cpu.system_registers >= 16 && Array.length Cpu.system_registers <= 24)

let test_idtr_double_fault () =
  let open Insn in
  let cpu = machine_of_bytes (assemble [ Ud2; Ret ]) in
  Cpu.push32 cpu stop_addr;
  let idtr = Array.to_list Cpu.system_registers |> List.find (fun s -> s.Cpu.sr_name = "IDTR") in
  idtr.Cpu.sr_set cpu (idtr.Cpu.sr_get cpu lxor 1);
  (match run cpu with
  | Cpu.Faulted Exn.Double_fault -> ()
  | _ -> Alcotest.fail "corrupt IDTR must double fault")

let test_cycle_accounting () =
  let open Insn in
  let cpu, r = run_insns [ Nop; Nop; Nop ] in
  expect_stopped (cpu, r);
  check_int "instructions" 4 cpu.Cpu.counters.Counters.instructions;
  check_bool "cycles >= instructions" true
    (cpu.Cpu.counters.Counters.cycles >= cpu.Cpu.counters.Counters.instructions)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ferrite_cisc"
    [
      ( "decode",
        [
          Alcotest.test_case "basic" `Quick test_decode_basic;
          Alcotest.test_case "ud2" `Quick test_decode_ud2;
          Alcotest.test_case "sib" `Quick test_decode_sib;
          Alcotest.test_case "undefined" `Quick test_decode_undefined;
          Alcotest.test_case "prefixes" `Quick test_decode_prefixes;
          Alcotest.test_case "figure 7 resync" `Quick test_figure7_resync;
          q prop_encode_decode_roundtrip;
          q prop_decode_disasm_total;
          q prop_decode_length_positive;
        ] );
      ( "exec",
        [
          Alcotest.test_case "arith" `Quick test_exec_arith;
          Alcotest.test_case "flag vectors" `Quick test_flags_add_sub_vectors;
          Alcotest.test_case "logic clears cf/of" `Quick test_flags_logic_clear_cf_of;
          Alcotest.test_case "inc preserves cf" `Quick test_flags_inc_preserves_cf;
          Alcotest.test_case "flag cases S8/S16/S32" `Quick test_flag_cases;
          q prop_flags_match_reference;
          Alcotest.test_case "AH subregister" `Quick test_subword_registers_ah;
          Alcotest.test_case "flags+jcc" `Quick test_exec_flags_and_jcc;
          Alcotest.test_case "memory subword" `Quick test_exec_memory_and_subword;
          Alcotest.test_case "push/pop" `Quick test_exec_push_pop_call;
          Alcotest.test_case "divide error" `Quick test_exec_div_by_zero;
          Alcotest.test_case "null deref" `Quick test_exec_null_deref;
          Alcotest.test_case "write to text" `Quick test_exec_write_to_code;
          Alcotest.test_case "ud2 faults" `Quick test_exec_ud2;
          Alcotest.test_case "bound" `Quick test_exec_bound;
          Alcotest.test_case "iret NT -> #TS" `Quick test_exec_iret_nt;
          Alcotest.test_case "iret ok" `Quick test_exec_iret_ok;
          Alcotest.test_case "rep movs" `Quick test_exec_rep_movs;
          Alcotest.test_case "cycles" `Quick test_cycle_accounting;
        ] );
      ( "debug+sysregs",
        [
          Alcotest.test_case "instruction bp" `Quick test_breakpoints;
          Alcotest.test_case "data bp after access" `Quick test_data_breakpoint_after_access;
          Alcotest.test_case "rmw write faults after its read" `Quick
            test_rmw_write_faults_after_read;
          Alcotest.test_case "rmw read faults first" `Quick test_rmw_read_faults_first;
          Alcotest.test_case "rmw watched" `Quick test_rmw_watched;
          Alcotest.test_case "cr3 register flip latent" `Quick test_sysreg_cr3_latent;
          Alcotest.test_case "mov cr3 poisons" `Quick test_mov_cr3_poisons;
          Alcotest.test_case "sysreg count" `Quick test_sysreg_count;
          Alcotest.test_case "idtr double fault" `Quick test_idtr_double_fault;
        ] );
    ]
