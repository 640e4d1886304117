open Ferrite_machine
open Insn

type op = Insn.t
type cache = op Tcache.t

type t = {
  mem : Memory.t;
  gpr : int array;
  mutable pc : int;
  mutable lr : int;
  mutable ctr : int;
  mutable cr : int;
  mutable xer : int;
  mutable msr : int;
  sprs : int array;
  sr : int array;
  sr_poisoned : bool array;
  dr : Debug_regs.t;
  counters : Counters.t;
  stop_addr : int;
  mutable translation_broken : bool;
  mutable bat_poisoned : bool;
  mutable sdr1_poisoned : bool;
  mutable btic_poisoned : bool;
  mutable last_indirect_target : int;
  mutable pending_hit : Debug_regs.data_hit option;
  mutable stopped : bool;
  mutable last_store_addr : int;
  cache : cache;
}

let msr_ee = 0x8000
let msr_pr = 0x4000
let msr_me = 0x1000
let msr_ir = 0x0020
let msr_dr = 0x0010

let msr_reset = msr_ee lor msr_me lor msr_ir lor msr_dr lor 0x2

let spr_xer = 1
let spr_lr = 8
let spr_ctr = 9
let spr_srr0 = 26
let spr_srr1 = 27
let spr_sprg0 = 272
let spr_sprg2 = 274
let spr_sdr1 = 25
let spr_hid0 = 1008
let spr_pvr = 287

let sdr1_reset = 0x00FE0000
let hid0_reset = 0x8000C000  (* ICE | DCE style enables *)

let exception_dispatch_cycles = 1100

(* The supervisor SPR file of the MPC7455 as the paper's campaign saw it:
   99 registers, listed with their architectural numbers. *)
let supervisor_sprs =
  [
    ("DSISR", 18); ("DAR", 19); ("DEC", 22); ("SDR1", 25); ("SRR0", 26); ("SRR1", 27);
    ("SPRG0", 272); ("SPRG1", 273); ("SPRG2", 274); ("SPRG3", 275);
    ("EAR", 282); ("TBL", 284); ("TBU", 285); ("PVR", 287);
    ("IBAT0U", 528); ("IBAT0L", 529); ("IBAT1U", 530); ("IBAT1L", 531);
    ("IBAT2U", 532); ("IBAT2L", 533); ("IBAT3U", 534); ("IBAT3L", 535);
    ("DBAT0U", 536); ("DBAT0L", 537); ("DBAT1U", 538); ("DBAT1L", 539);
    ("DBAT2U", 540); ("DBAT2L", 541); ("DBAT3U", 542); ("DBAT3L", 543);
    ("IBAT4U", 560); ("IBAT4L", 561); ("IBAT5U", 562); ("IBAT5L", 563);
    ("IBAT6U", 564); ("IBAT6L", 565); ("IBAT7U", 566); ("IBAT7L", 567);
    ("DBAT4U", 568); ("DBAT4L", 569); ("DBAT5U", 570); ("DBAT5L", 571);
    ("DBAT6U", 572); ("DBAT6L", 573); ("DBAT7U", 574); ("DBAT7L", 575);
    ("MMCR2", 944); ("BAMR", 951); ("MMCR0", 952); ("PMC1", 953); ("PMC2", 954);
    ("SIAR", 955); ("MMCR1", 956); ("PMC3", 957); ("PMC4", 958);
    ("TLBMISS", 980); ("PTEHI", 981); ("PTELO", 982); ("L3PM", 983);
    ("L3ITCR0", 984); ("L3ITCR1", 985); ("L3ITCR2", 986); ("L3ITCR3", 987);
    ("L3OHCR", 988); ("ICTRL2", 989); ("LDSTDB2", 990);
    ("HID0", 1008); ("HID1", 1009); ("IABR", 1010); ("ICTRL", 1011); ("LDSTDB", 1012);
    ("DABR", 1013); ("MSSCR0", 1014); ("MSSSR0", 1015); ("LDSTCR", 1016);
    ("L2CR", 1017); ("L3CR", 1018); ("ICTC", 1019);
    ("THRM1", 1020); ("THRM2", 1021); ("THRM3", 1022); ("PIR", 1023);
  ]

let known_spr =
  let tbl = Hashtbl.create 128 in
  List.iter (fun (_, n) -> Hashtbl.replace tbl n ()) supervisor_sprs;
  List.iter (fun n -> Hashtbl.replace tbl n ()) [ spr_xer; spr_lr; spr_ctr ];
  tbl

(* Word-indexed decode cache and block table: they span 32 KB of text, so no
   two pcs of the ~10 KB kernel text share a slot. *)
let slot_bits = 13
let[@inline] slot pc = (pc lsr 2) land ((1 lsl slot_bits) - 1)

let create ~mem ~stop_addr =
  let sprs = Array.make 1024 0 in
  sprs.(spr_sdr1) <- sdr1_reset;
  sprs.(spr_hid0) <- hid0_reset;
  sprs.(spr_pvr) <- 0x80010201;  (* 7455 *)
  let sr = Array.init 16 (fun i -> 0x20000000 lor i) in
  {
    mem;
    gpr = Array.make 32 0;
    pc = 0;
    lr = 0;
    ctr = 0;
    cr = 0;
    xer = 0;
    msr = msr_reset;
    sprs;
    sr;
    sr_poisoned = Array.make 16 false;
    dr = Debug_regs.create ();
    counters = Counters.create ();
    stop_addr;
    translation_broken = false;
    bat_poisoned = false;
    sdr1_poisoned = false;
    btic_poisoned = false;
    last_indirect_target = Layout.data_base + 0x100;
    pending_hit = None;
    stopped = false;
    last_store_addr = 0;
    cache = Tcache.create mem ~slot_bits ~nop:Sync;
  }

exception Cpu_fault of Exn.t

let cr_field t n = (t.cr lsr (28 - (4 * n))) land 0xF

let set_cr_field t n v =
  let shift = 28 - (4 * n) in
  t.cr <- (t.cr land lnot (0xF lsl shift) lor ((v land 0xF) lsl shift)) land 0xFFFFFFFF

let cr_bit t bi = (t.cr lsr (31 - bi)) land 1

let so_bit t = if t.xer land 0x80000000 <> 0 then 1 else 0

let record_cr0 t v =
  let s = Word.signed v in
  let f = (if s < 0 then 8 else if s > 0 then 4 else 2) lor so_bit t in
  set_cr_field t 0 f

(* --- memory, translation and watchpoints -------------------------------- *)

(* The ISI/DSI of an access through poisoned translation, at an address
   scrambled by [key]. *)
let poisoned_access ~fetch ~write addr key =
  let addr = Word.mask (addr lxor key) in
  raise
    (Cpu_fault
       (if fetch then Exn.Isi { addr } else Exn.Dsi { addr; write; protection = false }))

let[@inline] check_translation t addr ~fetch ~write =
  if t.translation_broken then
    raise (Cpu_fault (Exn.Machine_check { addr = Some addr }));
  (* a remapped BAT no longer covers the kernel's linear region: the access
     falls through to the (empty) page tables and takes a DSI/ISI *)
  if t.bat_poisoned then poisoned_access ~fetch ~write addr 0x28280000;
  if t.sdr1_poisoned then poisoned_access ~fetch ~write addr 0x3C3C0000;
  if t.sr_poisoned.((addr lsr 28) land 0xF) then
    poisoned_access ~fetch ~write addr 0x0F0F0000

let[@inline] note_data t addr len write =
  match t.pending_hit with
  | Some _ -> ()
  | None -> (
    match Debug_regs.check_data t.dr ~addr ~len ~is_write:write with
    | Some h -> t.pending_hit <- Some h
    | None -> ())

let width_len = function Byte -> 1 | Half -> 2 | Word -> 4

(* The 7455 handles misaligned scalar loads/stores in hardware; only the
   multi-word and string forms (lmw/stmw here) take an alignment interrupt,
   which is what Table 4's "Alignment" category comes from. *)
let check_multiword_alignment addr =
  if addr land 3 <> 0 then raise (Cpu_fault (Exn.Alignment { addr }))

let data_read t width addr =
  check_translation t addr ~fetch:false ~write:false;
  let v =
    try
      match width with
      | Byte -> Memory.load8 t.mem addr
      | Half -> Memory.load16_be t.mem addr
      | Word -> Memory.load32_be t.mem addr
    with Memory.Fault { addr; kind; _ } ->
      raise
        (Cpu_fault
           (Exn.Dsi { addr; write = false; protection = kind = Memory.Protection }))
  in
  note_data t addr (width_len width) false;
  v

let data_write t width addr v =
  check_translation t addr ~fetch:false ~write:true;
  (try
     match width with
     | Byte -> Memory.store8 t.mem addr v
     | Half -> Memory.store16_be t.mem addr v
     | Word -> Memory.store32_be t.mem addr v
   with Memory.Fault { addr; kind; _ } ->
     raise
       (Cpu_fault (Exn.Dsi { addr; write = true; protection = kind = Memory.Protection })));
  t.last_store_addr <- addr;
  note_data t addr (width_len width) true

let fetch_word t addr =
  try Memory.fetch32_be t.mem addr
  with Memory.Fault { addr; _ } -> raise (Cpu_fault (Exn.Isi { addr }))

(* Amortised cycle costs on the 1.0 GHz 7455: shallower pipeline and lower
   relative memory penalty than the P4 model. *)
let cycles_of_insn = function
  | Insn.Load _ | Store _ | Load_idx _ | Store_idx _ -> 7
  | Lmw _ | Stmw _ -> 22
  | Xarith ((Mullw | Mulhw | Mulhwu), _, _, _, _) -> 5
  | Xarith ((Divw | Divwu), _, _, _, _) -> 25
  | Darith (Mulli, _, _, _) -> 5
  | B _ | Bc _ | Bclr _ | Bcctr _ -> 2
  | Rfi -> 30
  | Sync | Isync | Eieio -> 5
  | _ -> 1

(* --- what the fetch path needs of this ISA -------------------------------- *)

(* The fault any fetch at [pc] raises before a byte is read: a machine check
   or a scrambled ISI under poisoned MSR/BAT/SDR1/segment state. *)
let[@inline] fetch_check t pc = check_translation t pc ~fetch:true ~write:false

(* The uncached reference decode. *)
let decode t pc =
  fetch_check t pc;
  Decode.word (fetch_word t pc)

(* The decode, recording the word read into [bytes]. *)
let decode_record t pc bytes =
  let w = fetch_word t pc in
  Bytes.set_int32_be bytes 0 (Int32.of_int w);
  Decode.word w

(* Whether the word recorded in [e] is still the one at [pc], compared
   whole. *)
let matches t pc (e : op Tcache.dentry) _from =
  fetch_word t pc = Int32.to_int (Bytes.get_int32_be e.d_bytes 0) land 0xFFFFFFFF

(* The fault a failed fetch or decode stands for; other exceptions
   re-raise. *)
let decode_fault = function
  | Cpu_fault e -> e
  | Decode.Undefined_opcode -> Exn.Program_illegal
  | e -> raise e

(* The G4 model has no wait instruction. *)
let halts _ _ (_ : op) = false

(* --- privileged state ---------------------------------------------------- *)

let privileged t = if t.msr land msr_pr <> 0 then raise (Cpu_fault Exn.Program_privileged)

let apply_msr t v =
  t.msr <- Word.mask v;
  t.translation_broken <- v land msr_ir = 0 || v land msr_dr = 0

let spr_read t spr =
  privileged t;
  if not (Hashtbl.mem known_spr spr) then raise (Cpu_fault Exn.Program_illegal);
  t.sprs.(spr)

(* HID0[BTIC] — enabling the branch-target instruction cache over invalid
   content is the paper's SPR1008 failure mode; the other HID0 bits are
   benign for a running kernel. *)
let hid0_btic = 0x20

(* Only changes to a BAT's effective-address field (BEPI, the high bits)
   re-route the kernel's linear mapping; the WIMG/PP low bits are benign for
   an already-running kernel. *)
let bat_field_change old_v new_v = (old_v lxor new_v) land 0xFFFE0000 <> 0

let is_live_bat spr = spr = 528 || spr = 529 || spr = 536 || spr = 537

let spr_write t spr v =
  privileged t;
  if not (Hashtbl.mem known_spr spr) then raise (Cpu_fault Exn.Program_illegal);
  let old_v = t.sprs.(spr) in
  t.sprs.(spr) <- Word.mask v;
  if spr = spr_sdr1 then t.sdr1_poisoned <- v <> sdr1_reset;
  if spr = spr_hid0 then
    t.btic_poisoned <- v land hid0_btic <> hid0_reset land hid0_btic;
  if is_live_bat spr && bat_field_change old_v v then t.bat_poisoned <- true

(* --- branch condition evaluation ----------------------------------------- *)

let branch_taken t bo bi =
  let bo0 = bo land 16 <> 0 in
  let bo1 = bo land 8 <> 0 in
  let bo2 = bo land 4 <> 0 in
  let bo3 = bo land 2 <> 0 in
  if not bo2 then t.ctr <- Word.sub t.ctr 1;
  let ctr_ok = bo2 || (t.ctr <> 0) <> bo3 in
  let cond_ok = bo0 || (cr_bit t bi = 1) = bo1 in
  ctr_ok && cond_ok

let indirect_target t target =
  let target = target land lnot 3 in
  if t.btic_poisoned then begin
    (* An enabled-but-invalid branch-target instruction cache supplies a stale
       target (the paper's SPR1008/HID0 failure mode, §5.2). *)
    let stale = t.last_indirect_target in
    t.btic_poisoned <- false;
    stale
  end
  else begin
    t.last_indirect_target <- target;
    target
  end

let goto t target =
  t.pc <- Word.mask target;
  if t.pc = t.stop_addr then t.stopped <- true

(* --- trap conditions ------------------------------------------------------ *)

let trap_fires to_ a b =
  let sa = Word.signed a and sb = Word.signed b in
  (to_ land 16 <> 0 && sa < sb)
  || (to_ land 8 <> 0 && sa > sb)
  || (to_ land 4 <> 0 && a = b)
  || (to_ land 2 <> 0 && a < b)
  || (to_ land 1 <> 0 && a > b)

(* --- execution ------------------------------------------------------------ *)

let ea_update t ra addr = if ra <> 0 then t.gpr.(ra) <- addr

(* The (rA|0) base operand. Top-level, not a closure in [exec], which would
   allocate on every call. *)
let[@inline] base g ra = if ra = 0 then 0 else g.(ra)

let rec count_leading_zeros v i =
  if i = 32 then 32
  else if v land (1 lsl (31 - i)) <> 0 then i
  else count_leading_zeros v (i + 1)

let exec t pc insn =
  let g = t.gpr in
  match insn with
  | Darith (op, rd, ra, simm) ->
    let v =
      match op with
      | Addi -> Word.add (base g ra) simm
      | Addis -> Word.add (base g ra) (Word.shl simm 16)
      | Addic -> Word.add g.(ra) simm
      | Mulli -> Word.mul g.(ra) simm
      | Subfic -> Word.sub simm g.(ra)
    in
    g.(rd) <- v
  | Dlogic (op, ra, rs, uimm) ->
    let v =
      match op with
      | Ori -> g.(rs) lor uimm
      | Oris -> g.(rs) lor (uimm lsl 16)
      | Xori -> g.(rs) lxor uimm
      | Xoris -> g.(rs) lxor (uimm lsl 16)
      | Andi_rc -> g.(rs) land uimm
      | Andis_rc -> g.(rs) land (uimm lsl 16)
    in
    g.(ra) <- Word.mask v;
    (match op with Andi_rc | Andis_rc -> record_cr0 t g.(ra) | _ -> ())
  | Load (m, rd, ra, d) ->
    let addr = Word.add (if m.update then g.(ra) else base g ra) d in
    let v = data_read t m.width addr in
    let v = if m.algebraic && m.width = Half then Word.sign_extend16 v else v in
    g.(rd) <- v;
    if m.update then ea_update t ra addr
  | Store (m, rs, ra, d) ->
    let addr = Word.add (if m.update then g.(ra) else base g ra) d in
    data_write t m.width addr g.(rs);
    if m.update then ea_update t ra addr
  | Load_idx (m, rd, ra, rb) ->
    let addr = Word.add (base g ra) g.(rb) in
    let v = data_read t m.width addr in
    let v = if m.algebraic && m.width = Half then Word.sign_extend16 v else v in
    g.(rd) <- v;
    if m.update then ea_update t ra addr
  | Store_idx (m, rs, ra, rb) ->
    let addr = Word.add (base g ra) g.(rb) in
    data_write t m.width addr g.(rs);
    if m.update then ea_update t ra addr
  | Lmw (rd, ra, d) ->
    let addr = ref (Word.add (base g ra) d) in
    check_multiword_alignment !addr;
    for r = rd to 31 do
      g.(r) <- data_read t Word !addr;
      addr := Word.add !addr 4
    done
  | Stmw (rs, ra, d) ->
    let addr = ref (Word.add (base g ra) d) in
    check_multiword_alignment !addr;
    for r = rs to 31 do
      data_write t Word !addr g.(r);
      addr := Word.add !addr 4
    done
  | Cmpi (unsigned, crf, ra, imm) ->
    let a = g.(ra) in
    let f =
      if unsigned then
        if a < imm then 8 else if a > imm then 4 else 2
      else begin
        let a = Word.signed a and b = Word.signed (Word.mask imm) in
        if a < b then 8 else if a > b then 4 else 2
      end
    in
    set_cr_field t crf (f lor so_bit t)
  | Cmp (unsigned, crf, ra, rb) ->
    let a = g.(ra) and b = g.(rb) in
    let f =
      if unsigned then if a < b then 8 else if a > b then 4 else 2
      else begin
        let a = Word.signed a and b = Word.signed b in
        if a < b then 8 else if a > b then 4 else 2
      end
    in
    set_cr_field t crf (f lor so_bit t)
  | Rlwinm (ra, rs, sh, mb, me, rc) ->
    let rotated = Word.rotl g.(rs) sh in
    (* Mask of bits mb..me in big-endian bit numbering (0 = MSB). *)
    let bit i = 1 lsl (31 - i) in
    let mask =
      if mb <= me then begin
        let m = ref 0 in
        for i = mb to me do
          m := !m lor bit i
        done;
        !m
      end
      else begin
        let m = ref 0 in
        for i = 0 to me do
          m := !m lor bit i
        done;
        for i = mb to 31 do
          m := !m lor bit i
        done;
        !m
      end
    in
    g.(ra) <- rotated land mask;
    if rc then record_cr0 t g.(ra)
  | Xarith (op, rd, ra, rb, rc) ->
    let a = g.(ra) and b = g.(rb) in
    let v =
      match op with
      | Add | Addc -> Word.add a b
      | Subf | Subfc -> Word.sub b a
      | Mullw -> Word.mul a b
      | Mulhw ->
        let p = Int64.mul (Int64.of_int (Word.signed a)) (Int64.of_int (Word.signed b)) in
        Int64.to_int (Int64.shift_right p 32) land 0xFFFFFFFF
      | Mulhwu ->
        let p = Int64.mul (Int64.of_int a) (Int64.of_int b) in
        Int64.to_int (Int64.shift_right_logical p 32)
      | Divw ->
        (* Division by zero is boundedly undefined on PowerPC: no trap. *)
        if b = 0 then 0
        else begin
          let q = Word.signed a / Word.signed b in
          Word.mask q
        end
      | Divwu -> if b = 0 then 0 else a / b
    in
    g.(rd) <- v;
    if rc then record_cr0 t v
  | Xlogic (op, ra, rs, rb, rc) ->
    let a = g.(rs) and b = g.(rb) in
    let v =
      match op with
      | And -> a land b
      | Andc -> a land Word.lognot b
      | Or -> a lor b
      | Orc -> a lor Word.lognot b
      | Xor -> a lxor b
      | Nor -> Word.lognot (a lor b)
      | Nand -> Word.lognot (a land b)
      | Eqv -> Word.lognot (a lxor b)
      | Slw ->
        let n = b land 63 in
        if n > 31 then 0 else Word.shl a n
      | Srw ->
        let n = b land 63 in
        if n > 31 then 0 else Word.shr a n
      | Sraw ->
        let n = b land 63 in
        if n > 31 then Word.mask (Word.signed a asr 31) else Word.sar a n
    in
    g.(ra) <- v;
    if rc then record_cr0 t v
  | Srawi (ra, rs, sh, rc) ->
    g.(ra) <- Word.sar g.(rs) sh;
    if rc then record_cr0 t g.(ra)
  | Neg (rd, ra, rc) ->
    g.(rd) <- Word.neg g.(ra);
    if rc then record_cr0 t g.(rd)
  | Extsb (ra, rs, rc) ->
    g.(ra) <- Word.sign_extend8 g.(rs);
    if rc then record_cr0 t g.(ra)
  | Extsh (ra, rs, rc) ->
    g.(ra) <- Word.sign_extend16 g.(rs);
    if rc then record_cr0 t g.(ra)
  | Cntlzw (ra, rs, rc) ->
    g.(ra) <- count_leading_zeros g.(rs) 0;
    if rc then record_cr0 t g.(ra)
  | B (li, aa, lk) ->
    if lk then t.lr <- Word.add pc 4;
    goto t (if aa then li else Word.add pc li)
  | Bc (bo, bi, bd, aa, lk) ->
    if lk then t.lr <- Word.add pc 4;
    if branch_taken t bo bi then goto t (if aa then bd else Word.add pc bd)
  | Bclr (bo, bi, lk) ->
    let target = indirect_target t t.lr in
    if lk then t.lr <- Word.add pc 4;
    if branch_taken t bo bi then goto t target
  | Bcctr (bo, bi, lk) ->
    let target = indirect_target t t.ctr in
    if lk then t.lr <- Word.add pc 4;
    if branch_taken t bo bi then goto t target
  | Sc -> raise (Cpu_fault Exn.Unexpected_syscall)
  | Rfi ->
    privileged t;
    apply_msr t t.sprs.(spr_srr1);
    goto t (t.sprs.(spr_srr0) land lnot 3)
  | Tw (to_, ra, rb) ->
    if trap_fires to_ g.(ra) g.(rb) then raise (Cpu_fault Exn.Program_trap)
  | Twi (to_, ra, simm) ->
    if trap_fires to_ g.(ra) (Word.mask simm) then raise (Cpu_fault Exn.Program_trap)
  | Mfspr (rd, spr) -> g.(rd) <- spr_read t spr
  | Mtspr (spr, rs) -> spr_write t spr g.(rs)
  | Mflr rd -> g.(rd) <- t.lr
  | Mtlr rs -> t.lr <- g.(rs)
  | Mfctr rd -> g.(rd) <- t.ctr
  | Mtctr rs -> t.ctr <- g.(rs)
  | Mfxer rd -> g.(rd) <- t.xer
  | Mtxer rs -> t.xer <- g.(rs)
  | Mfmsr rd ->
    privileged t;
    g.(rd) <- t.msr
  | Mtmsr rs ->
    privileged t;
    apply_msr t g.(rs)
  | Mfcr rd -> g.(rd) <- t.cr
  | Mtcrf (crm, rs) ->
    let v = g.(rs) in
    for f = 0 to 7 do
      if crm land (1 lsl (7 - f)) <> 0 then set_cr_field t f ((v lsr (28 - (4 * f))) land 0xF)
    done
  | Sync | Isync | Eieio -> ()

(* --- step results and fault delivery ------------------------------------ *)

type 'fault step = 'fault Step.result =
  | Retired
  | Halted
  | Hit_ibp
  | Hit_dbp of Debug_regs.data_hit
  | Stopped
  | Faulted of 'fault

type step_result = Exn.t step

let deliver_fault t pc e =
  t.pc <- pc;
  Counters.idle t.counters exception_dispatch_cycles;
  (* With machine checks disabled (MSR[ME]=0) the processor checkstops: no
     crash handler runs and no dump escapes. *)
  match e with
  | Exn.Machine_check _ when t.msr land msr_me = 0 ->
    Faulted (Exn.Software_panic { message = "checkstop" })
  | e -> Faulted e

(* --- what the translation engine needs of this ISA ----------------------- *)

(* Instructions excluded from blocks and executed by the precise [step]:
   [Sc]/[Rfi] raise or rewrite the MSR, and [Mtspr]/[Mtmsr] can poison
   translation, which the per-fetch [check_translation] of the precise path
   must observe on the very next instruction. *)
let is_terminator = function Sc | Rfi | Mtspr _ | Mtmsr _ -> true | _ -> false

(* Unconditional redirects. The builder follows [B] (its target is static)
   and ends the block at [Bclr]/[Bcctr], whose targets live in LR/CTR and
   flow through the side-effecting [indirect_target]. [prewarm] also uses
   this set to seed block entry points at redirect fall-throughs. *)
let ends_block = function B _ | Bclr _ | Bcctr _ -> true | _ -> false

let is_cf = function B _ | Bc _ | Bclr _ | Bcctr _ -> true | _ -> false

(* Exact on this ISA: [data_write] is reached only from these forms. *)
let may_store = function Store _ | Store_idx _ | Stmw _ -> true | _ -> false

let length (_ : op) = 4

(* The static target of a direct branch, or [-1]. *)
let target insn pc _next =
  match insn with
  | B (li, aa, _) -> Word.mask (if aa then li else Word.add pc li)
  | Bc (_, _, bd, aa, _) -> Word.mask (if aa then bd else Word.add pc bd)
  | _ -> -1

(* The target the block builder follows — [b]/[bl], and a backward [bc]
   predicted taken — or [-1] to continue at the fall-through. *)
let followed insn pc next =
  match insn with
  | B _ -> target insn pc next
  | Bc _ ->
    let t = target insn pc next in
    if t < pc then t else -1
  | _ -> -1

(* Block entries are word-aligned and end below the top of the space. *)
let[@inline] aligned pc = pc land 3 = 0
let wrap_bound = 0xFFFFFF00

(* [prewarm]'s decode pass skips a word it cannot decode. *)
let resync pc = pc + 4

(* Only [Cpu_fault] escapes [exec]. *)
let fault_of_exn = function Cpu_fault e -> e | e -> raise e

let poisoned t =
  t.translation_broken || t.bat_poisoned || t.sdr1_poisoned
  || t.sr_poisoned.(12) || t.sr_poisoned.(13) || t.sr_poisoned.(14)
  || t.sr_poisoned.(15)

let[@inline] pc t = t.pc
let[@inline] set_pc t v = t.pc <- v

(* The run loop's wild-march fast-forward retires nothing here: a zero word
   is an illegal instruction on this ISA, so a march ends on its first step
   (see the CISC [march]). *)
let march _ _ = 0

(* --- system registers (the G4 injection targets, §5.2) -------------------- *)

type sysreg = {
  sr_name : string;
  sr_bits : int;
  sr_get : t -> int;
  sr_set : t -> int -> unit;
}

let spr_sysreg (name, spr) =
  {
    sr_name = name;
    sr_bits = 32;
    sr_get = (fun t -> t.sprs.(spr));
    sr_set =
      (fun t v ->
        let old_v = t.sprs.(spr) in
        t.sprs.(spr) <- Word.mask v;
        if spr = spr_sdr1 then t.sdr1_poisoned <- v <> sdr1_reset
        else if spr = spr_hid0 then
          t.btic_poisoned <- v land hid0_btic <> hid0_reset land hid0_btic
        else if is_live_bat spr && bat_field_change old_v v then t.bat_poisoned <- true);
  }

let segment_sysreg i =
  {
    sr_name = Printf.sprintf "SR%d" i;
    sr_bits = 32;
    sr_get = (fun t -> t.sr.(i));
    sr_set =
      (fun t v ->
        t.sr.(i) <- Word.mask v;
        (* Only the kernel quadrant (0xC0000000 and up: SR12-SR15) is live
           while the kernel runs; corrupting it breaks translation. *)
        if i >= 12 then t.sr_poisoned.(i) <- true);
  }

let msr_sysreg =
  {
    sr_name = "MSR";
    sr_bits = 32;
    sr_get = (fun t -> t.msr);
    sr_set = (fun t v -> apply_msr t v);
  }

let system_registers =
  Array.of_list
    ((msr_sysreg :: List.map spr_sysreg supervisor_sprs)
    @ List.map segment_sysreg [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ])

(* --- snapshot/restore: the executor's "logical reboot" primitive ------- *)

type snapshot = {
  s_gpr : int array;
  s_pc : int;
  s_lr : int;
  s_ctr : int;
  s_cr : int;
  s_xer : int;
  s_msr : int;
  s_sprs : int array;
  s_sr : int array;
  s_sr_poisoned : bool array;
  s_dr : Debug_regs.snapshot;
  s_cycles : int;
  s_instructions : int;
  s_translation_broken : bool;
  s_bat_poisoned : bool;
  s_sdr1_poisoned : bool;
  s_btic_poisoned : bool;
  s_last_indirect_target : int;
  s_pending_hit : Debug_regs.data_hit option;
  s_stopped : bool;
  s_last_store_addr : int;
}

let snapshot t =
  {
    s_gpr = Array.copy t.gpr;
    s_pc = t.pc;
    s_lr = t.lr;
    s_ctr = t.ctr;
    s_cr = t.cr;
    s_xer = t.xer;
    s_msr = t.msr;
    s_sprs = Array.copy t.sprs;
    s_sr = Array.copy t.sr;
    s_sr_poisoned = Array.copy t.sr_poisoned;
    s_dr = Debug_regs.snapshot t.dr;
    s_cycles = t.counters.Counters.cycles;
    s_instructions = t.counters.Counters.instructions;
    s_translation_broken = t.translation_broken;
    s_bat_poisoned = t.bat_poisoned;
    s_sdr1_poisoned = t.sdr1_poisoned;
    s_btic_poisoned = t.btic_poisoned;
    s_last_indirect_target = t.last_indirect_target;
    s_pending_hit = t.pending_hit;
    s_stopped = t.stopped;
    s_last_store_addr = t.last_store_addr;
  }

let restore t s =
  Array.blit s.s_gpr 0 t.gpr 0 (Array.length t.gpr);
  t.pc <- s.s_pc;
  t.lr <- s.s_lr;
  t.ctr <- s.s_ctr;
  t.cr <- s.s_cr;
  t.xer <- s.s_xer;
  t.msr <- s.s_msr;
  Array.blit s.s_sprs 0 t.sprs 0 (Array.length t.sprs);
  Array.blit s.s_sr 0 t.sr 0 (Array.length t.sr);
  Array.blit s.s_sr_poisoned 0 t.sr_poisoned 0 (Array.length t.sr_poisoned);
  Debug_regs.restore t.dr s.s_dr;
  t.counters.Counters.cycles <- s.s_cycles;
  t.counters.Counters.instructions <- s.s_instructions;
  t.translation_broken <- s.s_translation_broken;
  t.bat_poisoned <- s.s_bat_poisoned;
  t.sdr1_poisoned <- s.s_sdr1_poisoned;
  t.btic_poisoned <- s.s_btic_poisoned;
  t.last_indirect_target <- s.s_last_indirect_target;
  t.pending_hit <- s.s_pending_hit;
  t.stopped <- s.s_stopped;
  t.last_store_addr <- s.s_last_store_addr
