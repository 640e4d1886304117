open Ferrite_machine
open Insn

type op = Insn.decoded

type t = {
  mem : Memory.t;
  regs : int array;
  mutable eip : int;
  mutable eflags : int;
  mutable fs : int;
  mutable gs : int;
  mutable cr0 : int;
  mutable cr2 : int;
  mutable cr3 : int;
  mutable gdtr : int;
  mutable idtr : int;
  mutable ldtr : int;
  mutable tr : int;
  mutable dr_shadow : int array;
  mutable msr_shadow : int array;
      (* CR4, TSC, SYSENTER_CS/ESP/EIP: present and injectable, but not
         consulted by a 2.4 int80 kernel — benign state, as on real hardware *)
  dr : Debug_regs.t;
  counters : Counters.t;
  stop_addr : int;
  mutable tlb_poisoned : bool;
  mutable pending_hit : Debug_regs.data_hit option;
  mutable stopped : bool;
  mutable last_store_addr : int;
  idtr0 : int;
  cr3_0 : int;
  cache : cache;
  recorder : recorder;
}

and cache = (op, t) Tcache.t

(* The recording decode's fetch, built once per CPU so that a decode
   allocates no closure: [rec_fetch] reads a byte and writes it into
   [rec_bytes] at its offset from [rec_pc]. *)
and recorder = {
  mutable rec_pc : int;
  mutable rec_bytes : Bytes.t;
  rec_fetch : int -> int;
}

type uop = (op, t) Tcache.uop

let eax = 0
let ecx = 1
let edx = 2
let ebx = 3
let esp = 4
let ebp = 5
let esi = 6
let edi = 7

let flag_cf = 0
let flag_pf = 2
let flag_zf = 6
let flag_sf = 7
let flag_if = 9
let flag_df = 10
let flag_of = 11
let flag_nt = 14

let selector_kernel_cs = 0x10
let selector_kernel_ds = 0x18
let selector_user_cs = 0x23
let selector_user_ds = 0x2B
let selector_percpu = 0x38

let gdtr_reset = 0xC0090000
let idtr_reset = 0xC0092000
let cr3_reset = 0x00101000

let exception_dispatch_cycles = 1250

(* Byte-indexed decode cache and block table: they span 16 KB of text, so no
   two pcs of the ~11 KB kernel text share a slot. *)
let slot_bits = 14
let[@inline] slot pc = pc land ((1 lsl slot_bits) - 1)

let recorder mem =
  let rec r =
    {
      rec_pc = 0;
      rec_bytes = Bytes.empty;
      rec_fetch =
        (fun addr ->
          let b = Memory.fetch8 mem addr in
          Bytes.set r.rec_bytes (addr - r.rec_pc) (Char.unsafe_chr b);
          b);
    }
  in
  r

let create ~mem ~stop_addr =
  {
    mem;
    regs = Array.make 8 0;
    eip = 0;
    eflags = 0x202;  (* IF set, reserved bit 1 *)
    fs = selector_percpu;
    gs = selector_user_ds;
    cr0 = 0x8005003B;  (* PG | WP | PE and friends *)
    cr2 = 0;
    cr3 = cr3_reset;
    gdtr = gdtr_reset;
    idtr = idtr_reset;
    ldtr = 0;
    tr = 0x30;
    dr_shadow = Array.make 6 0;
    msr_shadow = [| 0x000006D0; 0; 0; 0; 0 |];
    dr = Debug_regs.create ();
    counters = Counters.create ();
    stop_addr;
    tlb_poisoned = false;
    pending_hit = None;
    stopped = false;
    last_store_addr = 0;
    idtr0 = idtr_reset;
    cr3_0 = cr3_reset;
    cache = Tcache.create mem ~slot_bits ~nop:{ insn = Hlt; length = 1; rep = false };
    recorder = recorder mem;
  }

let getf t bit = t.eflags land (1 lsl bit) <> 0
let setf t bit v = t.eflags <- (if v then t.eflags lor (1 lsl bit) else t.eflags land lnot (1 lsl bit)) land 0xFFFFFFFF

(* Internal fault signal; [step] converts it into a [Faulted] result. *)
exception Cpu_fault of Exn.t

let gp ?addr () = raise (Cpu_fault (Exn.General_protection { addr }))
let pf addr ~write = raise (Cpu_fault (Exn.Page_fault { addr; write; fetch = false }))

(* Selector validity ignores the RPL bits (0-1): they pick a privilege level,
   not a descriptor, so flipping them does not reference a bad GDT entry. *)
let valid_data_selector s =
  let idx = s land 0xFFFC in
  idx = selector_kernel_ds land 0xFFFC
  || idx = selector_user_ds land 0xFFFC
  || idx = selector_percpu land 0xFFFC
  || idx = 0

let valid_code_selector s =
  let idx = s land 0xFFFC in
  idx = selector_kernel_cs land 0xFFFC || idx = selector_user_cs land 0xFFFC

(* --- memory access, with translation poisoning and watchpoints ---------- *)

let[@inline] poison_check t addr write =
  if t.tlb_poisoned then
    (* A corrupted CR3 makes the next translation resolve through garbage
       page tables: the access faults at a scrambled linear address (the
       paper's "noise on the address bus" analogy, §3.5). *)
    pf (Word.mask (addr lxor 0x5A5A5000)) ~write

let[@inline] note_data t addr len write =
  match t.pending_hit with
  | Some _ -> ()
  | None -> (
    match Debug_regs.check_data t.dr ~addr ~len ~is_write:write with
    | Some h -> t.pending_hit <- Some h
    | None -> ())

let len_of = function S8 -> 1 | S16 -> 2 | S32 -> 4

let[@inline] data_read t size addr =
  poison_check t addr false;
  let v =
    try
      match size with
      | S8 -> Memory.load8 t.mem addr
      | S16 -> Memory.load16_le t.mem addr
      | S32 -> Memory.load32_le t.mem addr
    with
    | Memory.Fault { addr; kind = Memory.Unmapped; _ } ->
      t.cr2 <- addr;
      pf addr ~write:false
    | Memory.Fault { addr; kind = Memory.Protection; _ } -> gp ~addr ()
  in
  note_data t addr (len_of size) false;
  v

let[@inline] data_write t size addr v =
  poison_check t addr true;
  (try
     match size with
     | S8 -> Memory.store8 t.mem addr v
     | S16 -> Memory.store16_le t.mem addr v
     | S32 -> Memory.store32_le t.mem addr v
   with
  | Memory.Fault { addr; kind = Memory.Unmapped; _ } ->
    t.cr2 <- addr;
    pf addr ~write:true
  | Memory.Fault { addr; kind = Memory.Protection; _ } -> gp ~addr ());
  t.last_store_addr <- addr;
  note_data t addr (len_of size) true

(* --- effective addresses ------------------------------------------------ *)

let check_override t = function
  | Some FS -> if not (valid_data_selector t.fs) || t.fs = 0 then gp ()
  | Some GS -> if not (valid_data_selector t.gs) || t.gs = 0 then gp ()
  | Some (ES | CS | SS | DS) | None -> ()

(* Register indices come from the decoder and are always 0-7 (the S8
   high-byte forms use [r - 4], still in range), so the operand funnel can
   skip the bounds checks. *)

let ea t m =
  check_override t m.seg;
  let base = match m.base with Some r -> Array.unsafe_get t.regs r | None -> 0 in
  let index =
    match m.index with Some (r, s) -> Array.unsafe_get t.regs r * s | None -> 0
  in
  Word.mask (base + index + m.disp)

(* --- operand access ----------------------------------------------------- *)

let[@inline] read_reg t size r =
  match size with
  | S32 -> Array.unsafe_get t.regs r
  | S16 -> Array.unsafe_get t.regs r land 0xFFFF
  | S8 ->
    if r < 4 then Array.unsafe_get t.regs r land 0xFF
    else (Array.unsafe_get t.regs (r - 4) lsr 8) land 0xFF

let[@inline] write_reg t size r v =
  match size with
  | S32 -> Array.unsafe_set t.regs r (Word.mask v)
  | S16 ->
    Array.unsafe_set t.regs r
      (Array.unsafe_get t.regs r land 0xFFFF0000 lor (v land 0xFFFF))
  | S8 ->
    if r < 4 then
      Array.unsafe_set t.regs r
        (Array.unsafe_get t.regs r land 0xFFFFFF00 lor (v land 0xFF))
    else
      Array.unsafe_set t.regs (r - 4)
        (Array.unsafe_get t.regs (r - 4) land 0xFFFF00FF
        lor ((v land 0xFF) lsl 8))

let read_operand t size = function
  | Reg r -> read_reg t size r
  | Mem m -> data_read t size (ea t m)
  | Imm v -> (match size with S8 -> v land 0xFF | S16 -> v land 0xFFFF | S32 -> Word.mask v)

let write_operand t size op v =
  match op with
  | Reg r -> write_reg t size r v
  | Mem m -> data_write t size (ea t m) v
  | Imm _ -> gp ()

(* A read-modify-write destination resolves its effective address (and
   validates its segment override) once: [rmw_ea] is a memory operand's
   address, which [Word.mask] keeps non-negative, and -1 for any other
   operand, which the two accessors below pass to the operand funnel. The
   read and the write stay two accesses, in that order, so faults, [cr2]
   and watchpoint hits are unchanged. *)
let[@inline] rmw_ea t = function Mem m -> ea t m | Reg _ | Imm _ -> -1

let[@inline] rmw_read t size op addr =
  if addr >= 0 then data_read t size addr else read_operand t size op

let[@inline] rmw_write t size op addr v =
  if addr >= 0 then data_write t size addr v else write_operand t size op v

(* --- flags -------------------------------------------------------------- *)

(* The arithmetic flags are written once per instruction. A writer builds
   the bits it defines (CF, PF, ZF, SF, OF) without branching on the result
   and stores them under their mask in one read-modify-write of [eflags];
   every other bit (IF, DF, NT, reserved bit 1, and AF, which is not
   modelled) keeps its value. *)

let size_bits = function S8 -> 8 | S16 -> 16 | S32 -> 32
let sign_bit size = 1 lsl (size_bits size - 1)
let size_mask = function S8 -> 0xFF | S16 -> 0xFFFF | S32 -> 0xFFFFFFFF

let cf_bit = 1 lsl flag_cf
let of_bit = 1 lsl flag_of
let szp_mask = (1 lsl flag_pf) lor (1 lsl flag_zf) lor (1 lsl flag_sf)
let arith_mask = cf_bit lor of_bit lor szp_mask

(* PF of each low byte, in place: [1 lsl flag_pf] when its set bits are even. *)
let parity =
  String.init 256 (fun v ->
      let v = v lxor (v lsr 4) in
      let v = v lxor (v lsr 2) in
      let v = v lxor (v lsr 1) in
      if v land 1 = 0 then Char.chr (1 lsl flag_pf) else '\000')

let[@inline] write_flags t mask bits =
  t.eflags <- t.eflags land (0xFFFFFFFF land lnot mask) lor (bits land mask)

(* Bit [k] of [v], at flag position [flag]. *)
let[@inline] bit_at v k flag = ((v lsr k) land 1) lsl flag

(* SF, ZF and PF of a result whose low [size] bits are the value; bits
   above them (an add's carry out) are ignored. *)
let[@inline] szp size r =
  Char.code (String.unsafe_get parity (r land 0xFF))
  lor (Bool.to_int (r land size_mask size = 0) lsl flag_zf)
  lor bit_at r (size_bits size - 1) flag_sf

(* All five flags of [r = a + b (+ carry)], [r] unmasked: CF is the carry
   out of the top bit, OF a sign change that the operands' signs rule out. *)
let[@inline] add_flags size a b r =
  let bits = size_bits size in
  bit_at r bits flag_cf
  lor bit_at ((a lxor r) land (b lxor r)) (bits - 1) flag_of
  lor szp size r

(* All five flags of [r = (a - b (- borrow)) land mask]: CF is [a < b]
   (the borrow-in does not count), OF a sign change from operands of
   different signs. *)
let[@inline] sub_flags size a b r =
  Bool.to_int (a < b) lsl flag_cf
  lor bit_at ((a lxor b) land (a lxor r)) (size_bits size - 1) flag_of
  lor szp size r

let set_szp t size r = write_flags t szp_mask (szp size r)
let[@inline] flags_logic t size r = write_flags t arith_mask (szp size r)
let[@inline] flags_add t size a b r = write_flags t arith_mask (add_flags size a b r)
let[@inline] flags_sub t size a b r = write_flags t arith_mask (sub_flags size a b r)

(* MUL and IMUL set CF and OF together, to whether the product overflowed
   its destination (IMUL: left the signed range, tested as [p + 2^(bits-1)]
   leaving [0, 2^bits)). *)
let[@inline] flags_mul t overflow =
  write_flags t (cf_bit lor of_bit) (Bool.to_int overflow * (cf_bit lor of_bit))

let eval_cond t = function
  | O -> getf t flag_of
  | NO -> not (getf t flag_of)
  | B -> getf t flag_cf
  | AE -> not (getf t flag_cf)
  | E -> getf t flag_zf
  | NE -> not (getf t flag_zf)
  | BE -> getf t flag_cf || getf t flag_zf
  | A -> not (getf t flag_cf) && not (getf t flag_zf)
  | S -> getf t flag_sf
  | NS -> not (getf t flag_sf)
  | P -> getf t flag_pf
  | NP -> not (getf t flag_pf)
  | L -> getf t flag_sf <> getf t flag_of
  | GE -> getf t flag_sf = getf t flag_of
  | LE -> getf t flag_zf || getf t flag_sf <> getf t flag_of
  | G -> (not (getf t flag_zf)) && getf t flag_sf = getf t flag_of

(* --- stack -------------------------------------------------------------- *)

let push32 t v =
  t.regs.(esp) <- Word.sub t.regs.(esp) 4;
  data_write t S32 t.regs.(esp) v

let pop32 t =
  let v = data_read t S32 t.regs.(esp) in
  t.regs.(esp) <- Word.add t.regs.(esp) 4;
  v

(* --- privileged paths ---------------------------------------------------- *)

let check_pe t = if t.cr0 land 1 = 0 then gp ()

let do_iret t =
  check_pe t;
  if getf t flag_nt then begin
    (* Nested-task return: the simulated kernel never chains tasks, so a
       corrupted NT bit sends IRET through an invalid TSS back-link (§5.2). *)
    if t.tr <> 0x30 then raise (Cpu_fault Exn.Invalid_tss)
    else raise (Cpu_fault Exn.Invalid_tss)
  end;
  let new_eip = pop32 t in
  let new_cs = pop32 t in
  let new_flags = pop32 t in
  (* IRET reloads the CS descriptor (through the GDT) but does not touch
     FS/GS — those are only validated when explicitly loaded. *)
  if t.gdtr <> gdtr_reset then gp ();
  if not (valid_code_selector (new_cs land 0xFFFF)) then gp ();
  t.eflags <- (new_flags lor 2) land lnot ((1 lsl 3) lor (1 lsl 5) lor (1 lsl 15)) land 0xFFFFFFFF;
  t.eip <- new_eip;
  if new_eip = t.stop_addr then t.stopped <- true

(* --- instruction execution ---------------------------------------------- *)

(* Amortised cycle costs on a 1.5 GHz deep-pipeline part: memory operands
   carry the averaged cache-miss penalty, which is what stretches the
   P4's error-propagation windows into the paper's 3k-100k cycle band. *)
let cycles_of_insn (d : decoded) =
  match d.insn with
  | Mov (_, Mem _, _) | Mov (_, _, Mem _) -> 18
  | Alu (_, _, Mem _, _) | Alu (_, _, _, Mem _) -> 18
  | Movzx (_, _, Mem _) | Movsx (_, _, Mem _) -> 18
  | Push _ | Pop _ -> 8
  | Call_rel _ | Call_ind _ | Ret | Ret_imm _ | Leave -> 16
  | Iret -> 40
  | Jcc _ | Jmp_rel _ | Jmp_ind _ -> 4
  | Grp3 ((Mul | Imul1), _, _) | Imul2 _ | Imul3 _ -> 15
  | Grp3 ((Div | Idiv), _, _) -> 50
  | Movs _ | Stos _ | Lods _ -> 8
  | Pusha | Popa -> 24
  | Hlt -> 2
  | _ -> 3

(* [a op b] at [size]: sets the flags and returns the result, which every
   op but [Cmp] writes back. *)
let[@inline] alu t op size a b =
  let m = size_mask size in
  match op with
  | Add ->
    let r = a + b in
    flags_add t size a b r;
    r land m
  | Adc ->
    let cin = (t.eflags lsr flag_cf) land 1 in
    let r = a + b + cin in
    flags_add t size a b r;
    r land m
  | Sub | Cmp ->
    let r = (a - b) land m in
    flags_sub t size a b r;
    r
  | Sbb ->
    let cin = (t.eflags lsr flag_cf) land 1 in
    let r = (a - b - cin) land m in
    flags_sub t size a b r;
    r
  | And ->
    let r = a land b in
    flags_logic t size r;
    r
  | Or ->
    let r = a lor b in
    flags_logic t size r;
    r
  | Xor ->
    let r = a lxor b in
    flags_logic t size r;
    r

let exec_alu t op size dst src =
  let addr = rmw_ea t dst in
  let a = rmw_read t size dst addr in
  let b = read_operand t size src in
  let r = alu t op size a b in
  if op <> Cmp then rmw_write t size dst addr r

(* [r <- a * b] for signed 32-bit [a] and [b] (two- and three-operand
   IMUL): CF and OF tell a product that left the signed range. *)
let[@inline] imul32 t r a b =
  let p = a * b in
  t.regs.(r) <- Word.mask p;
  flags_mul t ((p + 0x80000000) lsr 32 <> 0)

let exec_shift t op size dst count =
  let n = (match count with Count_imm k -> k | Count_cl -> t.regs.(ecx)) land 31 in
  if n <> 0 then begin
    let addr = rmw_ea t dst in
    let a = rmw_read t size dst addr in
    let bits = size_bits size in
    let m = size_mask size in
    let r, cf =
      match op with
      | Shl | Sal -> ((a lsl n) land m, (a lsr (bits - n)) land 1)
      | Shr -> (a lsr n, (a lsr (n - 1)) land 1)
      | Sar ->
        let signed = if a land sign_bit size <> 0 then a - (m + 1) else a in
        ((signed asr n) land m, (signed asr (n - 1)) land 1)
      | Rol ->
        let n = n mod bits in
        let r = ((a lsl n) lor (a lsr (bits - n))) land m in
        (r, r land 1)
      | Ror ->
        let n = n mod bits in
        let r = ((a lsr n) lor (a lsl (bits - n))) land m in
        (r, (r lsr (bits - 1)) land 1)
      | Rcl | Rcr ->
        (* Rotate-through-carry: approximated as plain rotate; the carry
           chain length is immaterial to fault behaviour. *)
        let n = n mod bits in
        let r = ((a lsl n) lor (a lsr (bits - n))) land m in
        (r, r land 1)
    in
    (* shifts and rotates leave OF as it was *)
    write_flags t (cf_bit lor szp_mask) ((cf lsl flag_cf) lor szp size r);
    rmw_write t size dst addr r
  end

let sext size v =
  match size with
  | S8 -> Word.signed (Word.sign_extend8 v)
  | S16 -> Word.signed (Word.sign_extend16 v)
  | S32 -> Word.signed v

let exec_muldiv t g size op1 =
  let m = size_mask size in
  match g with
  | Test_imm v ->
    let a = read_operand t size op1 in
    flags_logic t size (a land v land m)
  | Not ->
    let addr = rmw_ea t op1 in
    let a = rmw_read t size op1 addr in
    rmw_write t size op1 addr (lnot a land m)
  | Neg ->
    let addr = rmw_ea t op1 in
    let a = rmw_read t size op1 addr in
    let r = (- a) land m in
    flags_sub t size 0 a r;
    rmw_write t size op1 addr r
  | Mul ->
    let a = read_operand t size op1 in
    (match size with
    | S32 ->
      let p = Int64.mul (Int64.of_int t.regs.(eax)) (Int64.of_int a) in
      let lo = Int64.to_int (Int64.logand p 0xFFFFFFFFL) in
      let hi = Int64.to_int (Int64.shift_right_logical p 32) in
      t.regs.(eax) <- lo;
      t.regs.(edx) <- hi;
      flags_mul t (hi <> 0)
    | S16 | S8 ->
      let p = read_reg t size eax * a in
      write_reg t size eax p;
      write_reg t size edx (p lsr size_bits size);
      flags_mul t (p lsr size_bits size <> 0))
  | Imul1 ->
    let a = read_operand t size op1 in
    (match size with
    | S32 ->
      let p =
        Int64.mul (Int64.of_int (sext size t.regs.(eax))) (Int64.of_int (sext size a))
      in
      t.regs.(eax) <- Int64.to_int (Int64.logand p 0xFFFFFFFFL);
      t.regs.(edx) <- Int64.to_int (Int64.logand (Int64.shift_right p 32) 0xFFFFFFFFL);
      flags_mul t (not (Int64.equal p (Int64.of_int32 (Int64.to_int32 p))))
    | S16 | S8 ->
      let p = sext size (read_reg t size eax) * sext size a in
      write_reg t size eax p;
      write_reg t size edx (p asr size_bits size);
      flags_mul t ((p + sign_bit size) lsr size_bits size <> 0))
  | Div ->
    let d = read_operand t size op1 in
    if d = 0 then raise (Cpu_fault Exn.Divide_error);
    (match size with
    | S32 ->
      let dividend =
        Int64.logor
          (Int64.shift_left (Int64.of_int t.regs.(edx)) 32)
          (Int64.of_int t.regs.(eax))
      in
      let dl = Int64.of_int d in
      let q = Int64.unsigned_div dividend dl in
      if Int64.unsigned_compare q 0xFFFFFFFFL > 0 then raise (Cpu_fault Exn.Divide_error);
      t.regs.(eax) <- Int64.to_int q;
      t.regs.(edx) <- Int64.to_int (Int64.unsigned_rem dividend dl)
    | S16 | S8 ->
      let bits = size_bits size in
      let dividend = (read_reg t size edx lsl bits) lor read_reg t size eax in
      let q = dividend / d in
      if q > m then raise (Cpu_fault Exn.Divide_error);
      write_reg t size eax q;
      write_reg t size edx (dividend mod d))
  | Idiv ->
    let d = read_operand t size op1 in
    if d = 0 then raise (Cpu_fault Exn.Divide_error);
    (match size with
    | S32 ->
      let dividend =
        Int64.logor
          (Int64.shift_left (Int64.of_int t.regs.(edx)) 32)
          (Int64.of_int t.regs.(eax))
      in
      let dl = Int64.of_int32 (Int32.of_int d) in
      let q = Int64.div dividend dl in
      if Int64.compare q 0x7FFFFFFFL > 0 || Int64.compare q (-0x80000000L) < 0 then
        raise (Cpu_fault Exn.Divide_error);
      t.regs.(eax) <- Int64.to_int (Int64.logand q 0xFFFFFFFFL);
      t.regs.(edx) <- Int64.to_int (Int64.logand (Int64.rem dividend dl) 0xFFFFFFFFL)
    | S16 | S8 ->
      let bits = size_bits size in
      let dividend = (read_reg t size edx lsl bits) lor read_reg t size eax in
      let q = dividend / d in
      write_reg t size eax (q land m);
      write_reg t size edx (dividend mod d land m))

let string_step t size ~src ~dst =
  let bytes = len_of size in
  let delta = if getf t flag_df then - bytes else bytes in
  (match src, dst with
  | true, true ->
    let v = data_read t size t.regs.(esi) in
    data_write t size t.regs.(edi) v;
    t.regs.(esi) <- Word.add t.regs.(esi) delta;
    t.regs.(edi) <- Word.add t.regs.(edi) delta
  | false, true ->
    data_write t size t.regs.(edi) (read_reg t size eax);
    t.regs.(edi) <- Word.add t.regs.(edi) delta
  | true, false ->
    write_reg t size eax (data_read t size t.regs.(esi));
    t.regs.(esi) <- Word.add t.regs.(esi) delta
  | false, false -> ())

(* Execute up to [n] REP iterations; x86 string instructions are
   restartable, so a partially completed REP leaves EIP on itself. *)
let rec exec_rep_n t size ~src ~dst ~pc n =
  if t.regs.(ecx) = 0 then ()
  else if n = 0 then t.eip <- pc  (* resume this instruction next step *)
  else begin
    string_step t size ~src ~dst;
    t.regs.(ecx) <- Word.sub t.regs.(ecx) 1;
    Counters.idle t.counters 3;
    exec_rep_n t size ~src ~dst ~pc (n - 1)
  end

let exec_rep t size ~src ~dst ~pc = exec_rep_n t size ~src ~dst ~pc 64

let exec t pc (d : decoded) =
  match d.insn with
  | Alu (op, size, dst, src) -> exec_alu t op size dst src
  | Test (size, a, b) ->
    let x = read_operand t size a and y = read_operand t size b in
    flags_logic t size (x land y)
  | Mov (size, dst, src) ->
    let v = read_operand t size src in
    write_operand t size dst v
  | Movzx (ssize, r, src) -> t.regs.(r) <- read_operand t ssize src
  | Movsx (ssize, r, src) ->
    let v = read_operand t ssize src in
    t.regs.(r) <-
      (match ssize with
      | S8 -> Word.sign_extend8 v
      | S16 -> Word.sign_extend16 v
      | S32 -> v)
  | Lea (r, m) ->
    (* LEA performs no memory access and no segment validation. *)
    let base = match m.base with Some b -> t.regs.(b) | None -> 0 in
    let index = match m.index with Some (i, s) -> t.regs.(i) * s | None -> 0 in
    t.regs.(r) <- Word.mask (base + index + m.disp)
  | Xchg (size, op1, r) ->
    let addr = rmw_ea t op1 in
    let a = rmw_read t size op1 addr in
    let b = read_reg t size r in
    rmw_write t size op1 addr b;
    write_reg t size r a
  | Inc (size, op1) ->
    let addr = rmw_ea t op1 in
    let a = rmw_read t size op1 addr in
    let r = (a + 1) land size_mask size in
    (* INC and DEC keep CF *)
    write_flags t (arith_mask land lnot cf_bit) (add_flags size a 1 r);
    rmw_write t size op1 addr r
  | Dec (size, op1) ->
    let addr = rmw_ea t op1 in
    let a = rmw_read t size op1 addr in
    let r = (a - 1) land size_mask size in
    write_flags t (arith_mask land lnot cf_bit) (sub_flags size a 1 r);
    rmw_write t size op1 addr r
  | Push op1 -> push32 t (read_operand t S32 op1)
  | Pop op1 ->
    let v = pop32 t in
    write_operand t S32 op1 v
  | Pusha ->
    let sp0 = t.regs.(esp) in
    push32 t t.regs.(eax);
    push32 t t.regs.(ecx);
    push32 t t.regs.(edx);
    push32 t t.regs.(ebx);
    push32 t sp0;
    push32 t t.regs.(ebp);
    push32 t t.regs.(esi);
    push32 t t.regs.(edi)
  | Popa ->
    t.regs.(edi) <- pop32 t;
    t.regs.(esi) <- pop32 t;
    t.regs.(ebp) <- pop32 t;
    let _ = pop32 t in
    t.regs.(ebx) <- pop32 t;
    t.regs.(edx) <- pop32 t;
    t.regs.(ecx) <- pop32 t;
    t.regs.(eax) <- pop32 t
  | Pushf -> push32 t t.eflags
  | Popf -> t.eflags <- (pop32 t lor 2) land 0xFFFFFFFF
  | Grp3 (g, size, op1) -> exec_muldiv t g size op1
  | Imul2 (r, src) ->
    imul32 t r (Word.signed t.regs.(r)) (Word.signed (read_operand t S32 src))
  | Imul3 (r, src, k) ->
    imul32 t r (Word.signed (read_operand t S32 src)) (Word.signed (Word.mask k))
  | Shift (op, size, dst, count) -> exec_shift t op size dst count
  | Jcc (c, rel) -> if eval_cond t c then t.eip <- Word.add t.eip rel
  | Jmp_rel rel -> t.eip <- Word.add t.eip rel
  | Jmp_ind op1 ->
    let target = read_operand t S32 op1 in
    t.eip <- target;
    if target = t.stop_addr then t.stopped <- true
  | Call_rel rel ->
    push32 t t.eip;
    t.eip <- Word.add t.eip rel
  | Call_ind op1 ->
    let target = read_operand t S32 op1 in
    push32 t t.eip;
    t.eip <- target
  | Ret ->
    let r = pop32 t in
    t.eip <- r;
    if r = t.stop_addr then t.stopped <- true
  | Ret_imm k ->
    let r = pop32 t in
    t.regs.(esp) <- Word.add t.regs.(esp) k;
    t.eip <- r;
    if r = t.stop_addr then t.stopped <- true
  | Leave ->
    t.regs.(esp) <- t.regs.(ebp);
    t.regs.(ebp) <- pop32 t
  | Iret -> do_iret t
  | Int _ -> gp ()
  | Int3 -> raise (Cpu_fault Exn.Breakpoint_trap)
  | Bound (r, m) ->
    let addr = ea t m in
    let lo = Word.signed (data_read t S32 addr) in
    let hi = Word.signed (data_read t S32 (Word.add addr 4)) in
    let v = Word.signed t.regs.(r) in
    if v < lo || v > hi then raise (Cpu_fault Exn.Bounds)
  | Cwde -> t.regs.(eax) <- Word.sign_extend16 (t.regs.(eax) land 0xFFFF)
  | Cdq -> t.regs.(edx) <- (if t.regs.(eax) land 0x80000000 <> 0 then 0xFFFFFFFF else 0)
  | Setcc (c, op1) -> write_operand t S8 op1 (if eval_cond t c then 1 else 0)
  | Nop -> ()
  | Hlt -> ()
  | Cli -> setf t flag_if false
  | Sti -> setf t flag_if true
  | Clc -> setf t flag_cf false
  | Stc -> setf t flag_cf true
  | Cmc -> setf t flag_cf (not (getf t flag_cf))
  | Cld -> setf t flag_df false
  | Std -> setf t flag_df true
  | Ud2 -> raise (Cpu_fault Exn.Invalid_opcode)
  | Movs size ->
    if d.rep then exec_rep t size ~src:true ~dst:true ~pc
    else string_step t size ~src:true ~dst:true
  | Stos size ->
    if d.rep then exec_rep t size ~src:false ~dst:true ~pc
    else string_step t size ~src:false ~dst:true
  | Lods size ->
    if d.rep then exec_rep t size ~src:true ~dst:false ~pc
    else string_step t size ~src:true ~dst:false
  | Mov_from_seg (op1, s) ->
    let v = match s with ES -> selector_user_ds | CS -> selector_kernel_cs | SS -> selector_kernel_ds | DS -> selector_kernel_ds | FS -> t.fs | GS -> t.gs in
    write_operand t S32 op1 v
  | Mov_to_seg (s, op1) ->
    let v = read_operand t S16 op1 in
    if t.gdtr <> gdtr_reset then gp ();
    if not (valid_data_selector v) then gp ();
    (match s with
    | FS -> t.fs <- v
    | GS -> t.gs <- v
    | ES | SS | DS -> ()
    | CS -> gp ())
  | Mov_from_cr (cr, r) ->
    t.regs.(r) <-
      (match cr with 0 -> t.cr0 | 2 -> t.cr2 | 3 -> t.cr3 | _ -> gp ())
  | Mov_to_cr (cr, r) ->
    let v = t.regs.(r) in
    (match cr with
    | 0 -> t.cr0 <- v; check_pe t
    | 2 -> t.cr2 <- v
    | 3 -> t.cr3 <- v; t.tlb_poisoned <- v <> t.cr3_0
    | _ -> gp ())
  | In_al -> write_reg t S8 eax 0
  | Out_al -> ()
  | Daa | Das | Aaa | Aas ->
    (* BCD adjusts: correct AL per the decimal rules; flags approximated *)
    let al = read_reg t S8 eax in
    let al' = if al land 0x0F > 9 then (al + 6) land 0xFF else al in
    write_reg t S8 eax al';
    set_szp t S8 al'
  | Aam k ->
    if k = 0 then raise (Cpu_fault Exn.Divide_error);
    let al = read_reg t S8 eax in
    write_reg t S8 eax (al mod k);
    write_reg t S8 (eax + 4) (al / k);  (* AH *)
    set_szp t S8 (al mod k)
  | Aad k ->
    let al = read_reg t S8 eax and ah = read_reg t S8 (eax + 4) in
    let v = (al + (ah * k)) land 0xFF in
    write_reg t S8 eax v;
    write_reg t S8 (eax + 4) 0;
    set_szp t S8 v
  | Salc -> write_reg t S8 eax (if getf t flag_cf then 0xFF else 0)
  | Xlat ->
    let addr = Word.add t.regs.(ebx) (read_reg t S8 eax) in
    write_reg t S8 eax (data_read t S8 addr)
  | Loop rel ->
    t.regs.(ecx) <- Word.sub t.regs.(ecx) 1;
    if t.regs.(ecx) <> 0 then t.eip <- Word.add t.eip rel
  | Loope rel ->
    t.regs.(ecx) <- Word.sub t.regs.(ecx) 1;
    if t.regs.(ecx) <> 0 && getf t flag_zf then t.eip <- Word.add t.eip rel
  | Loopne rel ->
    t.regs.(ecx) <- Word.sub t.regs.(ecx) 1;
    if t.regs.(ecx) <> 0 && not (getf t flag_zf) then t.eip <- Word.add t.eip rel
  | Jcxz rel -> if t.regs.(ecx) = 0 then t.eip <- Word.add t.eip rel

(* --- compiled micro-ops --------------------------------------------------- *)

(* The superblock engine's micro-op for [d] at [pc] ([Translate]). The
   forms that make up most of the kernel's executed mix (EXPERIMENTS,
   "Compiled micro-ops") get a closure with their operands folded in: the
   operand size, the register numbers, the immediate, a [base+disp] address
   (no index, no segment override), the branch target and the fall-through.
   Each calls the helpers [exec] calls, in the same order, so it does what
   [exec t pc d] does once EIP is [pc + length]; a branch that is not taken
   sets that fall-through EIP itself. Every other form is [Exec d], which
   the run loop hands to [exec]; so is any form with a REP prefix, which
   [is_cf] marks as a redirect and which therefore needs the run loop to
   set EIP before it runs. *)
let compile pc (d : decoded) : uop =
  let open Tcache in
  let next = pc + d.length in
  match d.insn with
  | _ when d.rep -> Exec d
  | Mov (S32, Reg r, Reg s) -> Fn (fun t -> write_reg t S32 r (read_reg t S32 s))
  | Mov (S32, Reg r, Imm v) ->
    let v = Word.mask v in
    Fn (fun t -> write_reg t S32 r v)
  | Mov (S32, Reg r, Mem { base = Some b; index = None; seg = None; disp }) ->
    Fn (fun t -> write_reg t S32 r (data_read t S32 (Word.mask (t.regs.(b) + disp))))
  | Mov (S32, Mem { base = Some b; index = None; seg = None; disp }, Reg s) ->
    Fn (fun t -> data_write t S32 (Word.mask (t.regs.(b) + disp)) (read_reg t S32 s))
  | Mov (S8, Mem { base = Some b; index = None; seg = None; disp }, Reg s) ->
    Fn (fun t -> data_write t S8 (Word.mask (t.regs.(b) + disp)) (read_reg t S8 s))
  | Movzx (S8, r, Mem { base = Some b; index = None; seg = None; disp }) ->
    Fn (fun t -> t.regs.(r) <- data_read t S8 (Word.mask (t.regs.(b) + disp)))
  | Movzx (S16, r, Mem { base = Some b; index = None; seg = None; disp }) ->
    Fn (fun t -> t.regs.(r) <- data_read t S16 (Word.mask (t.regs.(b) + disp)))
  | Alu (op, S32, Reg r, Reg s) ->
    Fn
      (fun t ->
        let v = alu t op S32 (read_reg t S32 r) (read_reg t S32 s) in
        if op <> Cmp then write_reg t S32 r v)
  | Alu (op, S32, Reg r, Imm k) ->
    let k = Word.mask k in
    Fn
      (fun t ->
        let v = alu t op S32 (read_reg t S32 r) k in
        if op <> Cmp then write_reg t S32 r v)
  | Alu (op, S32, Reg r, Mem { base = Some b; index = None; seg = None; disp }) ->
    Fn
      (fun t ->
        let a = read_reg t S32 r in
        let v = alu t op S32 a (data_read t S32 (Word.mask (t.regs.(b) + disp))) in
        if op <> Cmp then write_reg t S32 r v)
  | Imul2 (r, Reg s) ->
    Fn (fun t -> imul32 t r (Word.signed t.regs.(r)) (Word.signed (read_reg t S32 s)))
  | Imul3 (r, Reg s, k) ->
    let k = Word.signed (Word.mask k) in
    Fn (fun t -> imul32 t r (Word.signed (read_reg t S32 s)) k)
  | Push (Reg s) -> Fn (fun t -> push32 t (read_reg t S32 s))
  | Pop (Reg r) -> Fn (fun t -> write_reg t S32 r (pop32 t))
  | Jcc (c, rel) ->
    let target = Word.add next rel in
    Fn (fun t -> t.eip <- (if eval_cond t c then target else next))
  | Jmp_rel rel ->
    let target = Word.add next rel in
    Fn (fun t -> t.eip <- target)
  | _ -> Exec d

(* --- step results and fault delivery ----------------------------------- *)

type 'fault step = 'fault Step.result =
  | Retired
  | Halted
  | Hit_ibp
  | Hit_dbp of Debug_regs.data_hit
  | Stopped
  | Faulted of 'fault

type step_result = Exn.t step

(* --- what the fetch path needs of this ISA ------------------------------- *)

(* The fault any fetch at [pc] raises before a byte is read: the scrambled
   #PF of poisoned translation. *)
let[@inline] fetch_check t pc = poison_check t pc false

let ifetch t addr =
  poison_check t addr false;
  Memory.fetch8 t.mem addr

(* The uncached reference decode. *)
let decode t pc = Decode.decode ~fetch:(ifetch t) pc

(* The decode, recording the bytes it reads into [bytes] (the decoder reads
   at most 15, from [pc] up). Its caller ran [fetch_check] at [pc], and a
   decode cannot poison translation, so the bytes are read without
   repeating the check. *)
let decode_record t pc bytes =
  let r = t.recorder in
  r.rec_pc <- pc;
  r.rec_bytes <- bytes;
  Decode.decode ~fetch:r.rec_fetch pc

(* Whether the bytes recorded in [e], from the [k]th on, are still the ones
   at [pc]. They are read in ascending order, the sequence the decoder
   reads (decoding is streaming: whether byte [k] is read depends only on
   bytes [0..k-1], which matched), so a fetch fault here is the one a fresh
   decode would raise. *)
let rec matches t pc (e : (op, t) Tcache.dentry) k =
  k >= e.d_op.length
  || Memory.fetch8 t.mem (pc + k) = Char.code (Bytes.unsafe_get e.d_bytes k)
     && matches t pc e (k + 1)

(* The fault a failed fetch or decode stands for; other exceptions
   re-raise. *)
let decode_fault = function
  | Decode.Undefined_opcode | Invalid_argument _ -> Exn.Invalid_opcode
  | Memory.Fault { addr; kind = Memory.Unmapped; _ } ->
    Exn.Page_fault { addr; write = false; fetch = true }
  | Memory.Fault { addr; kind = Memory.Protection; _ } ->
    Exn.General_protection { addr = Some addr }
  | Cpu_fault e -> e
  | e -> raise e

(* HLT with interrupts enabled idles the CPU. With them disabled it never
   wakes: it spins on itself, so the watchdog sees no progress and declares
   a hang. *)
let halts t pc (d : decoded) =
  match d.insn with
  | Hlt when not (getf t flag_if) ->
    t.eip <- pc;
    false
  | Hlt -> true
  | _ -> false

(* The fault an exception escaping [exec] stands for; others re-raise. *)
let fault_of_exn = function
  | Cpu_fault e -> e
  | Memory.Fault { addr; kind = Memory.Unmapped; _ } ->
    Exn.Page_fault { addr; write = false; fetch = false }
  | Memory.Fault { addr; kind = Memory.Protection; _ } ->
    Exn.General_protection { addr = Some addr }
  | e -> raise e

let deliver_fault t pc e =
  t.eip <- pc;
  Counters.idle t.counters exception_dispatch_cycles;
  (* A corrupted IDTR means the hardware cannot even find the handler: the
     fault escalates to a double fault and no crash dump escapes. *)
  if t.idtr <> t.idtr0 then Faulted Exn.Double_fault else Faulted e

(* --- what the translation engine needs of this ISA ---------------------- *)

(* Instructions excluded from blocks and executed by the precise [step]:
   [Hlt] needs the step epilogue's halt/spin handling, [Iret]/[Int]/[Int3]/
   [Ud2] raise by design, and [Mov_to_cr] can poison translation, which the
   per-fetch [poison_check] of the precise path must observe on the very
   next instruction. *)
let is_terminator (d : decoded) =
  match d.insn with
  | Hlt | Iret | Int _ | Int3 | Ud2 | Mov_to_cr _ -> true
  | _ -> false

(* Unconditional redirects. The builder follows the direct ones (jmp rel,
   call rel — their targets are static) and ends the block after the
   indirect ones, whose targets are only known at run time. [prewarm] also
   uses this set to seed block entry points at redirect fall-throughs. *)
let ends_block (d : decoded) =
  match d.insn with
  | Jmp_rel _ | Jmp_ind _ | Call_rel _ | Call_ind _ | Ret | Ret_imm _ -> true
  | _ -> false

(* Micro-ops that may rewrite EIP (including restartable REP strings, which
   park EIP on themselves when the iteration budget runs out). *)
let is_cf (d : decoded) =
  d.rep
  ||
  match d.insn with
  | Jcc _ | Jmp_rel _ | Jmp_ind _ | Call_rel _ | Call_ind _ | Ret | Ret_imm _
  | Loop _ | Loope _ | Loopne _ | Jcxz _ -> true
  | _ -> false

(* Conservative over-approximation of "may call [data_write]": used to
   re-check the block's backing generations after the micro-op, so a store
   into the block's own code bytes falls back before executing stale
   micro-ops. *)
let may_store (d : decoded) =
  let mem_op = function Mem _ -> true | Reg _ | Imm _ -> false in
  match d.insn with
  | Mov (_, dst, _) -> mem_op dst
  | Alu (_, _, dst, _) -> mem_op dst
  | Xchg (_, op, _) | Inc (_, op) | Dec (_, op) | Setcc (_, op)
  | Grp3 (_, _, op) | Shift (_, _, op, _) | Pop op -> mem_op op
  | Push _ | Pusha | Pushf | Call_rel _ | Call_ind _ -> true
  | Movs _ | Stos _ -> true
  | _ -> false

let length (d : decoded) = d.length

(* The static target of a direct branch, or [-1]. *)
let target (d : decoded) _pc next =
  match d.insn with
  | Jcc (_, rel) | Jmp_rel rel | Call_rel rel | Loop rel | Loope rel
  | Loopne rel | Jcxz rel -> Word.add next rel
  | _ -> -1

(* The target the block builder follows — jmp/call rel, and a backward jcc
   predicted taken — or [-1] to continue at the fall-through. *)
let followed (d : decoded) pc next =
  match d.insn with
  | Jmp_rel rel | Call_rel rel -> Word.add next rel
  | Jcc (_, rel) ->
    let t = Word.add next rel in
    if t < pc then t else -1
  | _ -> -1

(* Any byte may start an instruction; a block must end below the top of the
   space. *)
let[@inline] aligned _ = true
let wrap_bound = 0xFFFFFE00

(* After a bad decode [prewarm]'s walk has lost the instruction boundaries
   (embedded data), so it abandons the range. *)
let resync _ = max_int

let poisoned t = t.tlb_poisoned
let[@inline] pc t = t.eip
let[@inline] set_pc t v = t.eip <- v

(* Wild-march fast-forward. A corrupted return address or code byte often
   sends EIP into zero-filled lowmem, where [00 00] decodes as
   [add [eax],al]: each step adds AL to the byte at [eax], sets the flags
   and moves EIP on by two, and no register changes. [march t budget]
   retires [n <= budget] such steps at once and returns [n]: one load and
   one store at [eax] (the byte gains [n * AL]), the flags of the [n]th
   add, the store address, [n] steps of counters and [EIP + 2n]. The run
   loop calls it only while the decode miss streak is saturated, with
   translation unpoisoned and superblocks on, and runs the step after the
   last one precisely, so whatever ends the march (another instruction, a
   page to demand-map, a fault, a breakpoint) comes from the real step.
   Each skipped step is one the precise step would retire with no event:
   - its bytes are [00 00], inside pc's page, which the execute TLB holds
     (so it is mapped and executable);
   - no execute breakpoint is armed at its pc;
   - the write TLB holds [eax]'s page, which is readable, and no data
     watch covers [eax] (else the precise step demand-maps, faults or
     reports);
   - [eax] lies outside the skipped bytes, which its store would rewrite.
   An [add] never raises the stop sentinel, so none is checked. *)
let march_op = Decode.decode ~fetch:(fun _ -> 0) 0
let march_cost = cycles_of_insn march_op

let rec unarmed dr pc i n =
  if i >= n || Debug_regs.check_exec dr (pc + (2 * i)) then i
  else unarmed dr pc (i + 1) n

(* The march from [pc], whose page [code] the execute TLB holds. *)
let[@inline never] march_from t budget pc code =
  let addr = t.regs.(eax) in
  let n = if addr >= pc && (addr - pc) / 2 < budget then (addr - pc) / 2 else budget in
  let n = Memory.zero_run code (pc land (Memory.page_size - 1)) (2 * n) / 2 in
  let n = if n > 0 && Debug_regs.exec_armed t.dr then unarmed t.dr pc 0 n else n in
  if
    n > 0
    && (let data = Memory.tlb_page t.mem Memory.Write addr in
        data != Memory.null_page && (Memory.page_perm data).readable)
    && Debug_regs.check_data t.dr ~addr ~len:1 ~is_write:true = None
  then begin
    let al = t.regs.(eax) land 0xFF in
    let a = (Memory.load8 t.mem addr + ((n - 1) * al)) land 0xFF in
    Memory.store8 t.mem addr (a + al);
    flags_add t S8 a al (a + al);
    t.last_store_addr <- addr;
    t.pending_hit <- None;
    t.stopped <- false;
    t.eip <- Word.mask (pc + (2 * n));
    t.counters.Counters.cycles <- t.counters.Counters.cycles + (n * march_cost);
    t.counters.Counters.instructions <- t.counters.Counters.instructions + n;
    n
  end
  else 0

(* A TLB hit costs no page-table lookup and tells a page mapped for the
   access; the precise steps before filled both TLBs, and a miss (no march)
   is left to the precise step. Wild execution over any other instruction
   is told at once from the first byte of the last bypass decode (the
   previous precise step's): only after a [00] does the march probe pc. So
   a march starts one precise step into a zero run, not on its first step;
   the byte starts zeroed, so a streak's first march is probed. *)
let march t budget =
  if Bytes.unsafe_get t.cache.Tcache.bypass_bytes 0 <> '\000' then 0
  else begin
    let pc = t.eip in
    let code = Memory.tlb_page t.mem Memory.Execute pc in
    if Memory.zero_run code (pc land (Memory.page_size - 1)) 1 = 0 then 0
    else march_from t budget pc code
  end

(* --- system registers (the P4 injection targets, §5.2) ------------------ *)

type sysreg = {
  sr_name : string;
  sr_bits : int;
  sr_get : t -> int;
  sr_set : t -> int -> unit;
}

let system_registers =
  let msr i name = {
    sr_name = name;
    sr_bits = 32;
    sr_get = (fun t -> t.msr_shadow.(i));
    sr_set = (fun t v -> t.msr_shadow.(i) <- v);
  }
  in
  let dr i = {
    sr_name = Printf.sprintf "DR%d" (if i >= 4 then i + 2 else i);
    sr_bits = 32;
    sr_get = (fun t -> t.dr_shadow.(i));
    sr_set = (fun t v -> t.dr_shadow.(i) <- v);
  }
  in
  [|
    { sr_name = "EFLAGS"; sr_bits = 32; sr_get = (fun t -> t.eflags); sr_set = (fun t v -> t.eflags <- v) };
    { sr_name = "ESP"; sr_bits = 32; sr_get = (fun t -> t.regs.(esp)); sr_set = (fun t v -> t.regs.(esp) <- v) };
    { sr_name = "EIP"; sr_bits = 32; sr_get = (fun t -> t.eip); sr_set = (fun t v -> t.eip <- v) };
    { sr_name = "CR0"; sr_bits = 32; sr_get = (fun t -> t.cr0); sr_set = (fun t v -> t.cr0 <- v) };
    { sr_name = "CR2"; sr_bits = 32; sr_get = (fun t -> t.cr2); sr_set = (fun t v -> t.cr2 <- v) };
    {
      sr_name = "CR3";
      sr_bits = 32;
      (* A transient flip in CR3 is shielded by the TLB and by global kernel
         mappings: kernel threads never reload the page-table base, so the
         corruption stays latent for the run. An explicit MOV CR3 (a TLB
         flush) does poison translation — see [Mov_to_cr]. *)
      sr_get = (fun t -> t.cr3);
      sr_set = (fun t v -> t.cr3 <- v);
    };
    { sr_name = "GDTR"; sr_bits = 32; sr_get = (fun t -> t.gdtr); sr_set = (fun t v -> t.gdtr <- v) };
    { sr_name = "IDTR"; sr_bits = 32; sr_get = (fun t -> t.idtr); sr_set = (fun t v -> t.idtr <- v) };
    { sr_name = "LDTR"; sr_bits = 16; sr_get = (fun t -> t.ldtr); sr_set = (fun t v -> t.ldtr <- v) };
    { sr_name = "TR"; sr_bits = 16; sr_get = (fun t -> t.tr); sr_set = (fun t v -> t.tr <- v) };
    { sr_name = "FS"; sr_bits = 16; sr_get = (fun t -> t.fs); sr_set = (fun t v -> t.fs <- v) };
    { sr_name = "GS"; sr_bits = 16; sr_get = (fun t -> t.gs); sr_set = (fun t v -> t.gs <- v) };
    dr 0; dr 1; dr 2; dr 3; dr 4; dr 5;
    msr 0 "CR4"; msr 1 "TSC"; msr 2 "SYSENTER_CS"; msr 3 "SYSENTER_ESP"; msr 4 "SYSENTER_EIP";
  |]

(* --- snapshot/restore: the executor's "logical reboot" primitive ------- *)

type snapshot = {
  s_regs : int array;
  s_eip : int;
  s_eflags : int;
  s_fs : int;
  s_gs : int;
  s_cr0 : int;
  s_cr2 : int;
  s_cr3 : int;
  s_gdtr : int;
  s_idtr : int;
  s_ldtr : int;
  s_tr : int;
  s_dr_shadow : int array;
  s_msr_shadow : int array;
  s_dr : Debug_regs.snapshot;
  s_cycles : int;
  s_instructions : int;
  s_tlb_poisoned : bool;
  s_pending_hit : Debug_regs.data_hit option;
  s_stopped : bool;
  s_last_store_addr : int;
}

let snapshot t =
  {
    s_regs = Array.copy t.regs;
    s_eip = t.eip;
    s_eflags = t.eflags;
    s_fs = t.fs;
    s_gs = t.gs;
    s_cr0 = t.cr0;
    s_cr2 = t.cr2;
    s_cr3 = t.cr3;
    s_gdtr = t.gdtr;
    s_idtr = t.idtr;
    s_ldtr = t.ldtr;
    s_tr = t.tr;
    s_dr_shadow = Array.copy t.dr_shadow;
    s_msr_shadow = Array.copy t.msr_shadow;
    s_dr = Debug_regs.snapshot t.dr;
    s_cycles = t.counters.Counters.cycles;
    s_instructions = t.counters.Counters.instructions;
    s_tlb_poisoned = t.tlb_poisoned;
    s_pending_hit = t.pending_hit;
    s_stopped = t.stopped;
    s_last_store_addr = t.last_store_addr;
  }

let restore t s =
  Array.blit s.s_regs 0 t.regs 0 (Array.length t.regs);
  t.eip <- s.s_eip;
  t.eflags <- s.s_eflags;
  t.fs <- s.s_fs;
  t.gs <- s.s_gs;
  t.cr0 <- s.s_cr0;
  t.cr2 <- s.s_cr2;
  t.cr3 <- s.s_cr3;
  t.gdtr <- s.s_gdtr;
  t.idtr <- s.s_idtr;
  t.ldtr <- s.s_ldtr;
  t.tr <- s.s_tr;
  t.dr_shadow <- Array.copy s.s_dr_shadow;
  t.msr_shadow <- Array.copy s.s_msr_shadow;
  Debug_regs.restore t.dr s.s_dr;
  t.counters.Counters.cycles <- s.s_cycles;
  t.counters.Counters.instructions <- s.s_instructions;
  t.tlb_poisoned <- s.s_tlb_poisoned;
  t.pending_hit <- s.s_pending_hit;
  t.stopped <- s.s_stopped;
  t.last_store_addr <- s.s_last_store_addr
