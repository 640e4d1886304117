open Ferrite_machine
open Insn

(* Decode-cache entry: a decoded instruction at [d_pc] is valid while the
   generation counters of the page(s) its bytes were fetched from are
   unchanged. Two page slots because an x86 instruction (up to 15 bytes) can
   straddle a page boundary; single-page entries alias both slots. *)
type dentry = {
  mutable d_pc : int;
  mutable d_dec : Insn.decoded;
  mutable d_cost : int;  (* cycles_of_insn, cached with the decode *)
  d_bytes : Bytes.t;  (* the raw bytes [d_dec] was decoded from *)
  mutable d_pg1 : Memory.page;
  mutable d_wg1 : int;
  mutable d_pg2 : Memory.page;
  mutable d_wg2 : int;
  mutable d_warm : bool;  (* installed by the post-boot pre-warm pass *)
}

(* Superblock: a straight-line run of decoded instructions flattened into
   parallel arrays and executed in a tight loop with no per-step dispatch
   (no breakpoint poll, no decode-cache probe, batched counter accounting).
   Validity is the same page-generation scheme as the decode cache: any
   store, poke, injected flip or restore blit to a backing page bumps its
   generation and the block misses on entry. Micro-ops run through the same
   [exec]/[data_read]/[data_write]/fault-delivery paths as [step], so the
   layer is observationally invisible. *)
type sblock = {
  mutable b_pc : int;  (* entry pc, or -1 *)
  mutable b_len : int;
  b_decs : Insn.decoded array;
  b_pcs : int array;  (* per micro-op pc *)
  b_nexts : int array;  (* per micro-op fall-through pc *)
  b_succ : int array;  (* expected post-exec pc: the followed branch target
                          for jmp/call/predicted jcc, else the fall-through *)
  b_flags : int array;  (* bits 0-15 cycle cost; bit 16 cf; bit 17 may-store *)
  mutable b_pg1 : Memory.page;  (* backing pages (at most two distinct) *)
  mutable b_wg1 : int;
  mutable b_pg2 : Memory.page;
  mutable b_wg2 : int;
}

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
  dcache : dentry array;
  dc_enabled : bool;
  mutable dc_hits : int;
  mutable dc_misses : int;
  mutable dc_streak : int;  (* consecutive misses; long streaks bypass insert *)
  wm_memo : dentry array;  (* content-keyed decode memos, by first byte *)
  mutable last_cost : int;  (* cycle cost of the insn decode_at just returned *)
  sbcache : sblock array;
  sbcache1 : sblock array;  (* way 1: rebuilds of blocks stale in this trial *)
  sb_enabled : bool;
  mutable sb_hits : int;  (* block entries served from the cache *)
  mutable sb_blocks : int;  (* blocks built *)
  mutable sb_insns : int;  (* micro-ops retired inside blocks *)
  mutable sb_fallbacks : int;  (* precise-interpreter excursions *)
  mutable run_retired : int;  (* cleanly retired by the last [run] *)
  mutable dc_warm_hits : int;  (* decode hits on pre-warmed entries *)
  mutable prewarmed : int;  (* entries + blocks installed by [prewarm] *)
  mutable warming : bool;  (* inside [prewarm]: mark inserts as warm *)
}

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

let dcache_bits = 14
let dcache_size = 1 lsl dcache_bits
let dcache_mask = dcache_size - 1

(* After this many consecutive misses, stop inserting: the workload is
   marching through instructions it will never revisit (wild execution after
   a corrupted jump), and every insert would promote the freshly decoded
   record into the major heap for nothing. Hits reset the streak, so a loop
   that comes back around re-arms caching within one pass. *)
let dc_bypass_streak = 256

let fresh_dentry () =
  {
    d_pc = -1;
    d_dec = { insn = Hlt; length = 1; rep = false };
    d_cost = 0;
    d_bytes = Bytes.make 15 '\000';
    d_pg1 = Memory.null_page;
    d_wg1 = 0;
    d_pg2 = Memory.null_page;
    d_wg2 = 0;
    d_warm = false;
  }

(* Byte-indexed, so the table spans 16 KB of text: no two pcs of the ~11 KB
   kernel text share a slot. *)
let sbcache_bits = 14
let sbcache_size = 1 lsl sbcache_bits
let sbcache_mask = sbcache_size - 1

(* 32 micro-ops of at most 15 bytes. The builder additionally caps a block at
   two distinct backing pages so two generation checks validate the whole
   run. *)
let sb_max = 32

let sb_cost_mask = 0xFFFF
let sb_flag_cf = 0x10000
let sb_flag_st = 0x20000

let fresh_sblock () =
  {
    b_pc = -1;
    b_len = 0;
    b_decs = Array.make sb_max { insn = Hlt; length = 1; rep = false };
    b_pcs = Array.make sb_max 0;
    b_nexts = Array.make sb_max 0;
    b_succ = Array.make sb_max 0;
    b_flags = Array.make sb_max 0;
    b_pg1 = Memory.null_page;
    b_wg1 = 0;
    b_pg2 = Memory.null_page;
    b_wg2 = 0;
  }

(* Every slot of a fresh table holds this one shared block; [sb_slot]
   replaces it with a private block on the first build there, so a CPU
   allocates only the blocks it builds. It is never written, and its
   generation [-1] is one no page ever has, so it never validates. *)
let empty_sblock =
  {
    b_pc = -1;
    b_len = 0;
    b_decs = [||];
    b_pcs = [||];
    b_nexts = [||];
    b_succ = [||];
    b_flags = [||];
    b_pg1 = Memory.null_page;
    b_wg1 = -1;
    b_pg2 = Memory.null_page;
    b_wg2 = -1;
  }

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
    dcache = Array.init dcache_size (fun _ -> fresh_dentry ());
    dc_enabled = Memory.fast_paths mem;
    dc_hits = 0;
    dc_misses = 0;
    dc_streak = 0;
    wm_memo = Array.init 256 (fun _ -> fresh_dentry ());
    last_cost = 0;
    sbcache = Array.make sbcache_size empty_sblock;
    sbcache1 = Array.make sbcache_size empty_sblock;
    sb_enabled = Memory.superblocks mem;
    sb_hits = 0;
    sb_blocks = 0;
    sb_insns = 0;
    sb_fallbacks = 0;
    run_retired = 0;
    dc_warm_hits = 0;
    prewarmed = 0;
    warming = false;
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

let data_read t size addr =
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

let data_write t size addr v =
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

let read_reg t size r =
  match size with
  | S32 -> Array.unsafe_get t.regs r
  | S16 -> Array.unsafe_get t.regs r land 0xFFFF
  | S8 ->
    if r < 4 then Array.unsafe_get t.regs r land 0xFF
    else (Array.unsafe_get t.regs (r - 4) lsr 8) land 0xFF

let write_reg t size r v =
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

(* --- flags -------------------------------------------------------------- *)

let size_bits = function S8 -> 8 | S16 -> 16 | S32 -> 32
let sign_bit size = 1 lsl (size_bits size - 1)
let size_mask = function S8 -> 0xFF | S16 -> 0xFFFF | S32 -> 0xFFFFFFFF

let parity_even v =
  let v = v land 0xFF in
  let v = v lxor (v lsr 4) in
  let v = v lxor (v lsr 2) in
  let v = v lxor (v lsr 1) in
  v land 1 = 0

let set_szp t size r =
  setf t flag_zf (r land size_mask size = 0);
  setf t flag_sf (r land sign_bit size <> 0);
  setf t flag_pf (parity_even r)

let flags_logic t size r =
  setf t flag_cf false;
  setf t flag_of false;
  set_szp t size r

let flags_add t size a b r =
  setf t flag_cf (r > size_mask size);
  let sb = sign_bit size in
  setf t flag_of ((a land sb) = (b land sb) && (r land sb) <> (a land sb));
  set_szp t size r

let flags_sub t size a b r =
  setf t flag_cf (a < b);
  let sb = sign_bit size in
  setf t flag_of ((a land sb) <> (b land sb) && (r land sb) <> (a land sb));
  set_szp t size r

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
let cycles_of_insn = function
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

let exec_alu t op size dst src =
  let a = read_operand t size dst in
  let b = read_operand t size src in
  let m = size_mask size in
  match op with
  | Add ->
    let r = a + b in
    flags_add t size a b r;
    write_operand t size dst (r land m)
  | Adc ->
    let cin = if getf t flag_cf then 1 else 0 in
    let r = a + b + cin in
    flags_add t size a b r;
    write_operand t size dst (r land m)
  | Sub ->
    let r = (a - b) land m in
    flags_sub t size a b r;
    write_operand t size dst r
  | Sbb ->
    let cin = if getf t flag_cf then 1 else 0 in
    let r = (a - b - cin) land m in
    flags_sub t size a b r;
    write_operand t size dst r
  | Cmp ->
    let r = (a - b) land m in
    flags_sub t size a b r
  | And ->
    let r = a land b in
    flags_logic t size r;
    write_operand t size dst r
  | Or ->
    let r = a lor b in
    flags_logic t size r;
    write_operand t size dst r
  | Xor ->
    let r = a lxor b in
    flags_logic t size r;
    write_operand t size dst r

let exec_shift t op size dst count =
  let n = (match count with Count_imm k -> k | Count_cl -> t.regs.(ecx)) land 31 in
  if n <> 0 then begin
    let a = read_operand t size dst in
    let bits = size_bits size in
    let m = size_mask size in
    let r, cf =
      match op with
      | Shl | Sal -> ((a lsl n) land m, (a lsr (bits - n)) land 1 = 1)
      | Shr -> (a lsr n, (a lsr (n - 1)) land 1 = 1)
      | Sar ->
        let signed = if a land sign_bit size <> 0 then a - (m + 1) else a in
        ((signed asr n) land m, (signed asr (n - 1)) land 1 = 1)
      | Rol ->
        let n = n mod bits in
        let r = ((a lsl n) lor (a lsr (bits - n))) land m in
        (r, r land 1 = 1)
      | Ror ->
        let n = n mod bits in
        let r = ((a lsr n) lor (a lsl (bits - n))) land m in
        (r, r land sign_bit size <> 0)
      | Rcl | Rcr ->
        (* Rotate-through-carry: approximated as plain rotate; the carry
           chain length is immaterial to fault behaviour. *)
        let n = n mod bits in
        let r = ((a lsl n) lor (a lsr (bits - n))) land m in
        (r, r land 1 = 1)
    in
    setf t flag_cf cf;
    set_szp t size r;
    write_operand t size dst r
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
    let a = read_operand t size op1 in
    write_operand t size op1 (lnot a land m)
  | Neg ->
    let a = read_operand t size op1 in
    let r = (- a) land m in
    flags_sub t size 0 a r;
    write_operand t size op1 r
  | Mul ->
    let a = read_operand t size op1 in
    (match size with
    | S32 ->
      let p = Int64.mul (Int64.of_int t.regs.(eax)) (Int64.of_int a) in
      let lo = Int64.to_int (Int64.logand p 0xFFFFFFFFL) in
      let hi = Int64.to_int (Int64.shift_right_logical p 32) in
      t.regs.(eax) <- lo;
      t.regs.(edx) <- hi;
      setf t flag_cf (hi <> 0);
      setf t flag_of (hi <> 0)
    | S16 | S8 ->
      let p = read_reg t size eax * a in
      write_reg t size eax p;
      write_reg t size edx (p lsr size_bits size);
      setf t flag_cf (p lsr size_bits size <> 0);
      setf t flag_of (p lsr size_bits size <> 0))
  | Imul1 ->
    let a = read_operand t size op1 in
    (match size with
    | S32 ->
      let p =
        Int64.mul (Int64.of_int (sext size t.regs.(eax))) (Int64.of_int (sext size a))
      in
      t.regs.(eax) <- Int64.to_int (Int64.logand p 0xFFFFFFFFL);
      t.regs.(edx) <- Int64.to_int (Int64.logand (Int64.shift_right p 32) 0xFFFFFFFFL);
      let fits = Int64.equal p (Int64.of_int32 (Int64.to_int32 p)) in
      setf t flag_cf (not fits);
      setf t flag_of (not fits)
    | S16 | S8 ->
      let p = sext size (read_reg t size eax) * sext size a in
      write_reg t size eax p;
      write_reg t size edx (p asr size_bits size);
      let fits = p >= - (sign_bit size) && p < sign_bit size in
      setf t flag_cf (not fits);
      setf t flag_of (not fits))
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
    let a = read_operand t size op1 in
    let b = read_reg t size r in
    write_operand t size op1 b;
    write_reg t size r a
  | Inc (size, op1) ->
    let a = read_operand t size op1 in
    let r = (a + 1) land size_mask size in
    let cf = getf t flag_cf in
    flags_add t size a 1 r;
    setf t flag_cf cf;
    write_operand t size op1 r
  | Dec (size, op1) ->
    let a = read_operand t size op1 in
    let r = (a - 1) land size_mask size in
    let cf = getf t flag_cf in
    flags_sub t size a 1 r;
    setf t flag_cf cf;
    write_operand t size op1 r
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
    let a = Word.signed t.regs.(r) and b = Word.signed (read_operand t S32 src) in
    let p = a * b in
    t.regs.(r) <- Word.mask p;
    let fits = p >= -0x80000000 && p <= 0x7FFFFFFF in
    setf t flag_cf (not fits);
    setf t flag_of (not fits)
  | Imul3 (r, src, k) ->
    let a = Word.signed (read_operand t S32 src) and b = Word.signed (Word.mask k) in
    let p = a * b in
    t.regs.(r) <- Word.mask p;
    let fits = p >= -0x80000000 && p <= 0x7FFFFFFF in
    setf t flag_cf (not fits);
    setf t flag_of (not fits)
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

(* --- the step loop ------------------------------------------------------ *)

type step_result =
  | Retired
  | Halted
  | Hit_ibp
  | Hit_dbp of Debug_regs.data_hit
  | Stopped
  | Faulted of Exn.t

let ifetch t addr =
  poison_check t addr false;
  Memory.fetch8 t.mem addr

(* Re-check a generation-stale entry for [pc] byte by byte. The bytes are
   read in ascending order through [ifetch], exactly the sequence the decoder
   would request (decoding is streaming: whether byte [k] is read depends
   only on bytes [0..k-1], which matched), so a fetch fault here is the same
   fault a full re-decode would raise. On a match the entry's pages and
   generations are refreshed from the current mapping — never from the
   entry's possibly-replaced page objects — so a later remap still misses. *)
let revalidate t e pc =
  let len = e.d_dec.length in
  let rec bytes_match k =
    k >= len
    || ifetch t (pc + k) = Char.code (Bytes.unsafe_get e.d_bytes k)
       && bytes_match (k + 1)
  in
  bytes_match 0
  &&
  match Memory.page_at_opt t.mem pc with
  | None -> false
  | Some pg1 -> (
    let last = pc + len - 1 in
    let pg2 =
      if (pc land 0xFFFFFFFF) lsr 12 = (last land 0xFFFFFFFF) lsr 12 then
        Some pg1
      else Memory.page_at_opt t.mem last
    in
    match pg2 with
    | None -> false
    | Some pg2 ->
      e.d_pg1 <- pg1;
      e.d_wg1 <- Memory.page_generation pg1;
      e.d_pg2 <- pg2;
      e.d_wg2 <- Memory.page_generation pg2;
      true)

(* PC-keyed decode cache. Validity is generation-based: any store, poke,
   injected bit flip, remap or restore blit to a page bumps its counter, so
   self-modifying code and [Engine.flip_code_bit] evict stale entries
   naturally and the resync behaviour after a flip is identical to the
   uncached interpreter. Poisoned translation bypasses the cache entirely so
   the scrambled-fetch fault fires exactly as before. *)
let decode_at t pc =
  if (not t.dc_enabled) || t.tlb_poisoned then begin
    let d = Decode.decode ~fetch:(ifetch t) pc in
    t.last_cost <- cycles_of_insn d.insn;
    d
  end
  else begin
    let e = Array.unsafe_get t.dcache (pc land dcache_mask) in
    if
      e.d_pc = pc
      && Memory.page_generation e.d_pg1 = e.d_wg1
      && Memory.page_generation e.d_pg2 = e.d_wg2
    then begin
      t.dc_hits <- t.dc_hits + 1;
      if e.d_warm then t.dc_warm_hits <- t.dc_warm_hits + 1;
      t.dc_streak <- 0;
      t.last_cost <- e.d_cost;
      e.d_dec
    end
    else if e.d_pc = pc && revalidate t e pc then begin
      (* Stale generation but the instruction bytes are unchanged — the page
         was written elsewhere (typical of wild execution that stores into
         its own code page every iteration). [Decode.decode] is a pure
         function of the fetched bytes, so the cached decode is still
         exact; refresh the generations and reuse it. *)
      t.dc_hits <- t.dc_hits + 1;
      if e.d_warm then t.dc_warm_hits <- t.dc_warm_hits + 1;
      t.dc_streak <- 0;
      t.last_cost <- e.d_cost;
      e.d_dec
    end
    else if t.dc_streak >= dc_bypass_streak then begin
      (* Wild-march memo: during a bypass streak the pcs never repeat, but
         the bytes under them usually do (zero- or pattern-filled memory
         executed as code after a corrupted jump). A small content-keyed
         table indexed by the first opcode byte, compared byte-for-byte
         through [ifetch] on every probe — the same streaming argument as
         [revalidate] makes the reuse exact, and re-reading the live bytes
         makes staleness impossible — turns the megastep march from a full
         decode per step into a byte compare. *)
      t.dc_misses <- t.dc_misses + 1;
      let b0 = ifetch t pc in
      let wm = Array.unsafe_get t.wm_memo b0 in
      let len = if wm.d_pc >= 0 then wm.d_dec.length else 0 in
      let rec matches k =
        k >= len
        || ifetch t (pc + k) = Char.code (Bytes.unsafe_get wm.d_bytes k)
           && matches (k + 1)
      in
      if len > 0 && matches 1 then begin
        t.last_cost <- wm.d_cost;
        wm.d_dec
      end
      else begin
        wm.d_pc <- -1;
        let d =
          Decode.decode
            ~fetch:(fun addr ->
              let b = ifetch t addr in
              let k = addr - pc in
              if k >= 0 && k < 15 then
                Bytes.unsafe_set wm.d_bytes k (Char.unsafe_chr b);
              b)
            pc
        in
        t.last_cost <- cycles_of_insn d.insn;
        wm.d_pc <- pc;
        wm.d_dec <- d;
        wm.d_cost <- t.last_cost;
        d
      end
    end
    else begin
      t.dc_misses <- t.dc_misses + 1;
      t.dc_streak <- t.dc_streak + 1;
      (* The fetch wrapper records the consumed bytes into [e.d_bytes] as the
         decoder reads them, scribbling over whatever entry lived there —
         so mark the entry invalid first and only re-arm it if the insert
         completes, lest a failed insert leave stale bytes under a live pc. *)
      e.d_pc <- -1;
      let d =
        Decode.decode
          ~fetch:(fun addr ->
            let b = ifetch t addr in
            let k = addr - pc in
            if k >= 0 && k < 15 then
              Bytes.unsafe_set e.d_bytes k (Char.unsafe_chr b);
            b)
          pc
      in
      t.last_cost <- cycles_of_insn d.insn;
      (match Memory.page_at_opt t.mem pc with
      | None -> ()
      | Some pg1 ->
        let last = pc + d.length - 1 in
        let pg2 =
          if (pc land 0xFFFFFFFF) lsr 12 = (last land 0xFFFFFFFF) lsr 12 then
            Some pg1
          else Memory.page_at_opt t.mem last
        in
        (match pg2 with
        | None -> ()
        | Some pg2 ->
          e.d_pc <- pc;
          e.d_dec <- d;
          e.d_cost <- t.last_cost;
          e.d_pg1 <- pg1;
          e.d_wg1 <- Memory.page_generation pg1;
          e.d_pg2 <- pg2;
          e.d_wg2 <- Memory.page_generation pg2;
          e.d_warm <- t.warming;
          if t.warming then t.prewarmed <- t.prewarmed + 1));
      d
    end
  end

let deliver_fault t pc e =
  t.eip <- pc;
  Counters.idle t.counters exception_dispatch_cycles;
  (* A corrupted IDTR means the hardware cannot even find the handler: the
     fault escalates to a double fault and no crash dump escapes. *)
  if t.idtr <> t.idtr0 then Faulted Exn.Double_fault else Faulted e

let step ?(skip_ibp = false) t =
  let pc = t.eip in
  if (not skip_ibp) && Debug_regs.check_exec t.dr pc then Hit_ibp
  else begin
    (match t.pending_hit with Some _ -> t.pending_hit <- None | None -> ());
    t.stopped <- false;
    match decode_at t pc with
    | exception Decode.Undefined_opcode -> deliver_fault t pc Exn.Invalid_opcode
    | exception Invalid_argument _ -> deliver_fault t pc Exn.Invalid_opcode
    | exception Memory.Fault { addr; kind = Memory.Unmapped; _ } ->
      deliver_fault t pc (Exn.Page_fault { addr; write = false; fetch = true })
    | exception Memory.Fault { addr; kind = Memory.Protection; _ } ->
      deliver_fault t pc (Exn.General_protection { addr = Some addr })
    | exception Cpu_fault e -> deliver_fault t pc e
    | d ->
      t.eip <- Word.add pc d.length;
      (match exec t pc d with
      | exception Cpu_fault e -> deliver_fault t pc e
      | exception Memory.Fault { addr; kind = Memory.Unmapped; _ } ->
        deliver_fault t pc (Exn.Page_fault { addr; write = false; fetch = false })
      | exception Memory.Fault { addr; kind = Memory.Protection; _ } ->
        deliver_fault t pc (Exn.General_protection { addr = Some addr })
      | () ->
        Counters.retire t.counters ~cost:t.last_cost;
        if t.stopped then Stopped
        else
          match d.insn with
          | Hlt ->
            if getf t flag_if then Halted
            else begin
              (* HLT with interrupts disabled never wakes: spin here so the
                 watchdog sees no progress and declares a hang. *)
              t.eip <- pc;
              Retired
            end
          | _ -> (
            match t.pending_hit with
            | Some h -> Hit_dbp h
            | None -> Retired))
  end

(* --- superblock translation --------------------------------------------- *)

(* Instructions excluded from blocks and executed by the precise [step]:
   [Hlt] needs the step epilogue's halt/spin handling, [Iret]/[Int]/[Int3]/
   [Ud2] raise by design, and [Mov_to_cr] can poison translation, which the
   per-fetch [poison_check] of the precise path must observe on the very
   next instruction. *)
let is_sb_terminator = function
  | Hlt | Iret | Int _ | Int3 | Ud2 | Mov_to_cr _ -> true
  | _ -> false

(* Unconditional redirects. The builder follows the direct ones (jmp rel,
   call rel — their targets are static) and ends the block after the
   indirect ones, whose targets are only known at run time. [prewarm] also
   uses this set to seed block entry points at redirect fall-throughs. *)
let sb_ends_block = function
  | Jmp_rel _ | Jmp_ind _ | Call_rel _ | Call_ind _ | Ret | Ret_imm _ -> true
  | _ -> false

(* Micro-ops that may rewrite EIP (including restartable REP strings, which
   park EIP on themselves when the iteration budget runs out). *)
let sb_is_cf (d : decoded) =
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
let sb_may_store (d : decoded) =
  let mem_op = function Mem _ -> true | Reg _ | Imm _ -> false in
  match d.insn with
  | Mov (_, dst, _) -> mem_op dst
  | Alu (_, _, dst, _) -> mem_op dst
  | Xchg (_, op, _) | Inc (_, op) | Dec (_, op) | Setcc (_, op)
  | Grp3 (_, _, op) | Shift (_, _, op, _) | Pop op -> mem_op op
  | Push _ | Pusha | Pushf | Call_rel _ | Call_ind _ -> true
  | Movs _ | Stos _ -> true
  | _ -> false

(* Decode a run of instructions starting at [pc] into [b], following
   statically-known branch targets: unconditional jmp/call continue at the
   target, and a backward jcc is predicted taken (the common shape of a loop
   back-edge), so tight loops unroll into the block instead of paying the
   block-entry overhead every iteration. [b_succ] records each micro-op's
   expected post-exec pc; execution compares EIP against it and leaves the
   block precisely — with EIP already exact — on any mispredicted or
   indirect redirect. Returns [true] when at least one micro-op was
   recorded. Stops at capacity, a terminator, an indirect redirect, the
   two-distinct-page cap, or a fetch/decode fault — the faulting pc is left
   outside the block, so the precise interpreter delivers that exception
   with exact semantics if execution ever reaches it. A terminator at [pc]
   itself still installs [b], as a zero-length block validated by the
   terminator's pages: the run loop then steps that pc precisely at once
   instead of decoding and failing a build on every visit. *)
let sb_build t b pc =
  b.b_pc <- -1;
  let entry_terminator = ref false in
  let n = ref 0 in
  let p = ref pc in
  (* a block is validated by two generation checks, so its micro-ops may
     live on at most two distinct backing pages; [claim] registers the page
     under [addr] and fails on a third *)
  let npg = ref 0 in
  let pg1 = ref Memory.null_page and pg2 = ref Memory.null_page in
  let claim addr =
    match Memory.page_at_opt t.mem addr with
    | None -> false
    | Some pg ->
      if !npg > 0 && pg == !pg1 then true
      else if !npg > 1 && pg == !pg2 then true
      else if !npg = 0 then begin
        pg1 := pg;
        npg := 1;
        true
      end
      else if !npg = 1 then begin
        pg2 := pg;
        npg := 2;
        true
      end
      else false
  in
  (try
     while !n < sb_max do
       (* followed targets must satisfy the same wrap guard as entry pcs *)
       if !p < 0 || !p > 0xFFFFFE00 then raise Exit;
       let d = decode_at t !p in
       let last = !p + d.length - 1 in
       if is_sb_terminator d.insn then begin
         entry_terminator :=
           !n = 0 && claim !p && (!p lsr 12 = last lsr 12 || claim last);
         raise Exit
       end;
       if not (claim !p && (!p lsr 12 = last lsr 12 || claim last)) then
         raise Exit;
       let next = !p + d.length in
       let succ, ends =
         match d.insn with
         | Jmp_rel rel | Call_rel rel -> (Word.add next rel, false)
         | Jcc (_, rel) ->
           let target = Word.add next rel in
           if target < !p then (target, false)  (* backward: predict taken *)
           else (next, false)
         | i -> (next, sb_ends_block i)
       in
       b.b_decs.(!n) <- d;
       b.b_pcs.(!n) <- !p;
       b.b_nexts.(!n) <- next;
       b.b_succ.(!n) <- succ;
       b.b_flags.(!n) <-
         t.last_cost
         lor (if sb_is_cf d then sb_flag_cf else 0)
         lor (if sb_may_store d then sb_flag_st else 0);
       incr n;
       p := succ;
       if ends then raise Exit
     done
   with
  | Exit | Cpu_fault _ | Decode.Undefined_opcode | Invalid_argument _
  | Memory.Fault _ -> ());
  if !n > 0 || !entry_terminator then begin
    if !npg = 1 then pg2 := !pg1;
    b.b_len <- !n;
    b.b_pg1 <- !pg1;
    b.b_wg1 <- Memory.page_generation !pg1;
    b.b_pg2 <- !pg2;
    b.b_wg2 <- Memory.page_generation !pg2;
    b.b_pc <- pc
  end;
  !n > 0

let sb_slot_of pc = pc land sbcache_mask

let[@inline] sb_valid b pc =
  b.b_pc = pc
  && Memory.page_generation b.b_pg1 = b.b_wg1
  && Memory.page_generation b.b_pg2 = b.b_wg2

(* The block in [slot] of [table], first replacing the shared empty block
   with a private one, so it can be built into. *)
let sb_slot table slot =
  let b = Array.unsafe_get table slot in
  if b != empty_sblock then b
  else begin
    let b = fresh_sblock () in
    Array.unsafe_set table slot b;
    b
  end

(* The valid block cached for entry [pc], from way 0 or else way 1, or
   [empty_sblock] when neither validates. *)
let[@inline] sb_lookup t slot pc =
  let b = Array.unsafe_get t.sbcache slot in
  if sb_valid b pc then b
  else
    let b = Array.unsafe_get t.sbcache1 slot in
    if sb_valid b pc then b else empty_sblock

(* The block to build entry [pc] into: way 0, unless way 0 holds [pc]'s
   block on a page mutated since the last restore. That block went stale in
   this trial (an injected flip, typically) and validates again once the
   restore rewinds the page's generation, so the rebuild goes to way 1 and
   leaves it in place. Placement affects speed only: every entry is still
   validated by its generations. *)
let sb_victim t slot pc =
  let b = Array.unsafe_get t.sbcache slot in
  if b.b_pc = pc && (Memory.page_dirty b.b_pg1 || Memory.page_dirty b.b_pg2) then
    sb_slot t.sbcache1 slot
  else sb_slot t.sbcache slot

(* How many leading micro-ops of [b] may run while execute breakpoints are
   armed: the block is cut just before its first micro-op past the entry
   whose pc is armed, so the next loop iteration reaches that pc as a block
   entry and [step] reports [Hit_ibp] there, as the precise loop would. The
   precise loop tests breakpoints only at the pcs it executes, and these are
   the same pcs, so the cut is exact. Call with [k = 1]. *)
let rec sb_cut t b limit k =
  if k >= limit || Debug_regs.check_exec t.dr (Array.unsafe_get b.b_pcs k) then k
  else sb_cut t b limit (k + 1)

(* Run up to [max_steps] instructions, preferring translated superblock
   execution and falling back to the precise [step] whenever translation
   cannot reproduce its observable semantics (an armed execute breakpoint at
   the block entry, poisoned translation, a terminator instruction). Same
   contract as the RISC twin: returns the first event and leaves the
   cleanly retired count [n] in [run_retired]; for [Hit_dbp]/[Stopped] the
   event-carrying instruction has retired (counters include it) but is
   excluded from [n]; for [Faulted] the exception has been delivered
   exactly as [step] would. *)
let run t ~max_steps =
  if max_steps <= 0 then invalid_arg "Cpu.run: max_steps must be positive";
  let retired = ref 0 in
  let fin = ref None in
  (* [sb_enabled] and the debug registers cannot change inside one [run]
     call; translation poison can, but only under the precise interpreter
     (control-register writes are terminators), so the eligibility chain is
     re-evaluated after fallback excursions instead of at every entry *)
  let forced_static = not t.sb_enabled in
  let bp_armed = Debug_regs.exec_armed t.dr in
  let forced = ref (forced_static || t.tlb_poisoned) in
  while Option.is_none !fin && !retired < max_steps do
    let pc = t.eip in
    if
      !forced
      || pc < 0
      || pc > 0xFFFFFE00  (* a block near the top of the space would wrap *)
      || (bp_armed && Debug_regs.check_exec t.dr pc)  (* [step] reports it *)
    then begin
      t.sb_fallbacks <- t.sb_fallbacks + 1;
      (match step t with
      | Retired | Halted -> incr retired
      | r -> fin := Some r);
      forced := forced_static || t.tlb_poisoned
    end
    else begin
      let slot = sb_slot_of pc in
      let b = sb_lookup t slot pc in
      let valid = b != empty_sblock in
      (* wild execution: don't build *)
      let buildable = (not valid) && t.dc_streak < dc_bypass_streak in
      let b = if buildable then sb_victim t slot pc else b in
      let have =
        if valid then begin
          (* a zero-length block remembers a terminator at the entry *)
          if b.b_len > 0 then t.sb_hits <- t.sb_hits + 1;
          b.b_len > 0
        end
        else
          buildable
          && begin
            let built = sb_build t b pc in
            if built then t.sb_blocks <- t.sb_blocks + 1;
            built
          end
      in
      if not have then begin
        (* a terminator remembered at the entry runs here and may poison
           translation, so re-evaluate as after the excursion above *)
        t.sb_fallbacks <- t.sb_fallbacks + 1;
        (match step t with
        | Retired | Halted -> incr retired
        | r -> fin := Some r);
        forced := forced_static || t.tlb_poisoned
      end
      else begin
        (* the tight loop: no per-step dispatch, batched accounting *)
        let decs = b.b_decs and flags = b.b_flags in
        let pcs = b.b_pcs and nexts = b.b_nexts and succs = b.b_succ in
        let limit =
          let budget = max_steps - !retired in
          let limit = if b.b_len < budget then b.b_len else budget in
          if bp_armed then sb_cut t b limit 1 else limit
        in
        (match t.pending_hit with Some _ -> t.pending_hit <- None | None -> ());
        t.stopped <- false;
        (* block-invariant: nothing inside a block writes the debug
           registers, so when no watchpoint is armed [pending_hit] can never
           become [Some] and the per-op check is skipped *)
        let watched = Debug_regs.armed_count t.dr > 0 in
        let i = ref 0 in
        let cyc = ref 0 in
        let exit_block = ref false in
        (* the handler is installed once for the whole block, not per
           micro-op; [i] still indexes the faulting micro-op there because it
           is only advanced after a clean return *)
        (try
          while (not !exit_block) && !i < limit do
            let k = !i in
            let mpc = Array.unsafe_get pcs k in
            let fl = Array.unsafe_get flags k in
            (* branch micro-ops compute their target from the pre-set
               fall-through EIP; no other micro-op reads it, so the write is
               elided for them and every block exit re-establishes EIP *)
            if fl land sb_flag_cf <> 0 then t.eip <- Array.unsafe_get nexts k;
            exec t mpc (Array.unsafe_get decs k);
            cyc := !cyc + (fl land sb_cost_mask);
            incr i;
            (* same observation order as the [step] epilogue: stop sentinel
               first, then watchpoints; an off-predicted-path redirect merely
               ends the block with EIP already exact. Only redirect micro-ops
               (RET/IRET/JMP-indirect) can raise the stop sentinel, so
               straight-line micro-ops skip that load entirely. *)
            if fl land sb_flag_cf <> 0 then begin
              if t.stopped then begin
                fin := Some Stopped;
                exit_block := true
              end
              else begin
                (if watched then
                   match t.pending_hit with
                   | Some h ->
                     fin := Some (Hit_dbp h);
                     exit_block := true
                   | None -> ());
                if not !exit_block then
                  if t.eip <> Array.unsafe_get succs k then
                    exit_block := true  (* mispredict / indirect / REP park *)
                  else if
                    fl land sb_flag_st <> 0
                    && not
                         (Memory.page_generation b.b_pg1 = b.b_wg1
                         && Memory.page_generation b.b_pg2 = b.b_wg2)
                  then begin
                    exit_block := true  (* call pushed into the block *)
                  end
              end
            end
            else begin
              (if watched then
                 match t.pending_hit with
                 | Some h ->
                   t.eip <- Array.unsafe_get succs k;
                   fin := Some (Hit_dbp h);
                   exit_block := true
                 | None -> ());
              if
                (not !exit_block)
                && fl land sb_flag_st <> 0
                && not
                     (Memory.page_generation b.b_pg1 = b.b_wg1
                     && Memory.page_generation b.b_pg2 = b.b_wg2)
              then begin
                t.eip <- Array.unsafe_get succs k;
                exit_block := true  (* store into the block itself *)
              end
            end
          done
        with
        | Cpu_fault e ->
          exit_block := true;
          fin := Some (deliver_fault t (Array.unsafe_get pcs !i) e)
        | Memory.Fault { addr; kind = Memory.Unmapped; _ } ->
          exit_block := true;
          fin :=
            Some
              (deliver_fault t
                 (Array.unsafe_get pcs !i)
                 (Exn.Page_fault { addr; write = false; fetch = false }))
        | Memory.Fault { addr; kind = Memory.Protection; _ } ->
          exit_block := true;
          fin :=
            Some
              (deliver_fault t
                 (Array.unsafe_get pcs !i)
                 (Exn.General_protection { addr = Some addr })));
        if (not !exit_block) && !i > 0 then
          (* natural end: the elided per-op EIP writes collapse into one
             store of the last micro-op's successor *)
          t.eip <- Array.unsafe_get succs (!i - 1);
        (* batched accounting for the retired prefix *)
        t.counters.Counters.cycles <- t.counters.Counters.cycles + !cyc;
        t.counters.Counters.instructions <- t.counters.Counters.instructions + !i;
        t.sb_insns <- t.sb_insns + !i;
        (match !fin with
        | Some (Hit_dbp _) | Some Stopped ->
          (* the event-carrying micro-op retired (counted above) but is
             reported as the event, not as a clean step *)
          retired := !retired + !i - 1;
          t.sb_fallbacks <- t.sb_fallbacks + 1
        | Some _ ->
          retired := !retired + !i;
          t.sb_fallbacks <- t.sb_fallbacks + 1
        | None -> retired := !retired + !i)
      end
    end
  done;
  t.run_retired <- !retired;
  match !fin with None -> Retired | Some r -> r

(* Pre-warm the decode and superblock caches from the kernel image's function
   ranges, so the first trial does not pay the cold-miss tail on paths the
   boot never executed. Touches only caches and diagnostics — architectural
   state, counters and snapshots are unaffected. *)
let prewarm t funcs =
  if t.dc_enabled then begin
    t.warming <- true;
    List.iter
      (fun (addr, size) ->
        let fin = addr + size in
        (* decode pass: follow instruction lengths, collecting block entry
           points (branch targets and fall-throughs of block enders) *)
        let entries = ref [ addr ] in
        let p = ref addr in
        (try
           while !p < fin do
             t.dc_streak <- 0;
             let d = decode_at t !p in
             let nx = !p + d.length in
             (match d.insn with
             | Jcc (_, rel) | Jmp_rel rel | Call_rel rel | Loop rel
             | Loope rel | Loopne rel | Jcxz rel ->
               entries := Word.add nx rel :: !entries
             | _ -> ());
             if sb_ends_block d.insn || is_sb_terminator d.insn then
               entries := nx :: !entries;
             p := nx
           done
         with
        | Cpu_fault _ | Decode.Undefined_opcode | Invalid_argument _
        | Memory.Fault _ ->
          (* embedded data desynchronised the walk; abandon this range *)
          ());
        if t.sb_enabled then
          List.iter
            (fun e ->
              if e >= addr && e < fin then begin
                let slot = sb_slot_of e in
                t.dc_streak <- 0;
                if
                  sb_lookup t slot e == empty_sblock
                  && sb_build t (sb_victim t slot e) e
                then begin
                  t.sb_blocks <- t.sb_blocks + 1;
                  t.prewarmed <- t.prewarmed + 1
                end
              end)
            !entries)
      funcs;
    t.warming <- false
  end

let cache_stats t =
  {
    Cache_stats.zero with
    Cache_stats.cs_decode_hits = t.dc_hits;
    cs_decode_misses = t.dc_misses;
    cs_decode_warm_hits = t.dc_warm_hits;
    cs_prewarmed = t.prewarmed;
    cs_sb_hits = t.sb_hits;
    cs_sb_blocks = t.sb_blocks;
    cs_sb_insns = t.sb_insns;
    cs_sb_fallbacks = t.sb_fallbacks;
  }

let cached_block_len t pc =
  let b = sb_lookup t (sb_slot_of pc) pc in
  if b == empty_sblock then -1 else b.b_len

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
