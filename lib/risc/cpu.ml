open Ferrite_machine
open Insn

(* Decode-cache entry: instructions are one aligned word, so a single page
   backs each entry; it is valid while that page's generation counter is
   unchanged (stores, pokes, injected flips, remaps and restores bump it). *)
type dentry = {
  mutable d_pc : int;
  mutable d_insn : Insn.t;
  mutable d_word : int;  (* the raw word [d_insn] was decoded from *)
  mutable d_cost : int;  (* cycles_of_insn, cached with the decode *)
  mutable d_pg : Memory.page;
  mutable d_wg : int;
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
  b_insns : Insn.t array;
  b_pcs : int array;  (* per micro-op pc (non-contiguous across branches) *)
  b_succ : int array;  (* expected post-exec pc: the followed branch target
                          for b/bl/predicted bc, else the fall-through *)
  b_flags : int array;  (* bits 0-15 cycle cost; bit 16 cf; bit 17 may-store *)
  mutable b_pg1 : Memory.page;  (* backing pages (at most two distinct) *)
  mutable b_wg1 : int;
  mutable b_pg2 : Memory.page;
  mutable b_wg2 : int;
}

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
  dcache : dentry array;
  dc_enabled : bool;
  mutable dc_hits : int;
  mutable dc_misses : int;
  mutable dc_streak : int;  (* consecutive misses; long streaks bypass insert *)
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

let dcache_bits = 12
let dcache_size = 1 lsl dcache_bits
let dcache_mask = dcache_size - 1

(* After this many consecutive misses, stop inserting: the workload is
   marching through instructions it will never revisit (wild execution after
   a corrupted jump), and every insert would promote the freshly decoded
   instruction into the major heap for nothing. Hits reset the streak, so a
   loop that comes back around re-arms caching within one pass. *)
let dc_bypass_streak = 256

let fresh_dentry () =
  {
    d_pc = -1;
    d_insn = B (0, false, false);
    d_word = 0;
    d_cost = 0;
    d_pg = Memory.null_page;
    d_wg = 0;
    d_warm = false;
  }

(* Word-indexed, so the table spans 32 KB of text: no two pcs of the ~10 KB
   kernel text share a slot. *)
let sbcache_bits = 13
let sbcache_size = 1 lsl sbcache_bits
let sbcache_mask = sbcache_size - 1

(* 32 micro-ops of 4 bytes. The builder follows direct branches, so the ops
   need not be contiguous; it caps a block at two distinct backing pages so
   two generation checks validate the whole run. *)
let sb_max = 32

let sb_cost_mask = 0xFFFF
let sb_flag_cf = 0x10000
let sb_flag_st = 0x20000

let fresh_sblock () =
  {
    b_pc = -1;
    b_len = 0;
    b_insns = Array.make sb_max Insn.Sync;
    b_pcs = Array.make sb_max 0;
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
    b_insns = [||];
    b_pcs = [||];
    b_succ = [||];
    b_flags = [||];
    b_pg1 = Memory.null_page;
    b_wg1 = -1;
    b_pg2 = Memory.null_page;
    b_wg2 = -1;
  }

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
    dcache = Array.init dcache_size (fun _ -> fresh_dentry ());
    dc_enabled = Memory.fast_paths mem;
    dc_hits = 0;
    dc_misses = 0;
    dc_streak = 0;
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

let[@inline] check_translation t addr ~fetch ~write =
  if t.translation_broken then
    raise (Cpu_fault (Exn.Machine_check { addr = Some addr }));
  if t.bat_poisoned then begin
    (* a remapped BAT no longer covers the kernel's linear region: the access
       falls through to the (empty) page tables and takes a DSI/ISI *)
    let scrambled = Word.mask (addr lxor 0x28280000) in
    if fetch then raise (Cpu_fault (Exn.Isi { addr = scrambled }))
    else raise (Cpu_fault (Exn.Dsi { addr = scrambled; write; protection = false }))
  end;
  if t.sdr1_poisoned then begin
    let scrambled = Word.mask (addr lxor 0x3C3C0000) in
    if fetch then raise (Cpu_fault (Exn.Isi { addr = scrambled }))
    else raise (Cpu_fault (Exn.Dsi { addr = scrambled; write; protection = false }))
  end;
  if t.sr_poisoned.((addr lsr 28) land 0xF) then begin
    let scrambled = Word.mask (addr lxor 0x0F0F0000) in
    if fetch then raise (Cpu_fault (Exn.Isi { addr = scrambled }))
    else raise (Cpu_fault (Exn.Dsi { addr = scrambled; write; protection = false }))
  end

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

let ifetch32 t addr =
  check_translation t addr ~fetch:true ~write:false;
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

(* PC-keyed decode cache over [ifetch32] + [Decode.word]. The translation
   check still runs first on every path, so poisoned MSR/BAT/SDR1/segment
   state raises the same machine check / ISI as the uncached interpreter;
   validity is the backing page's generation counter, so stores, pokes and
   [Engine.flip_code_bit] evict stale entries. Raises [Cpu_fault] like
   [ifetch32] and [Decode.Undefined_opcode] like [Decode.word]. *)
let decode_at t pc =
  if not t.dc_enabled then begin
    let insn = Decode.word (ifetch32 t pc) in
    t.last_cost <- cycles_of_insn insn;
    insn
  end
  else begin
    check_translation t pc ~fetch:true ~write:false;
    let e = Array.unsafe_get t.dcache ((pc lsr 2) land dcache_mask) in
    if e.d_pc = pc && Memory.page_generation e.d_pg = e.d_wg then begin
      t.dc_hits <- t.dc_hits + 1;
      if e.d_warm then t.dc_warm_hits <- t.dc_warm_hits + 1;
      t.dc_streak <- 0;
      t.last_cost <- e.d_cost;
      e.d_insn
    end
    else begin
      let w =
        try Memory.fetch32_be t.mem pc
        with Memory.Fault { addr; _ } -> raise (Cpu_fault (Exn.Isi { addr }))
      in
      if e.d_pc = pc && e.d_word = w then begin
        (* Stale generation but the word itself is unchanged — the page was
           written elsewhere (typical of wild execution that stores into its
           own code page every iteration). [Decode.word] is pure, so the
           cached decode is still exact; refresh the generation and reuse. *)
        (match Memory.page_at_opt t.mem pc with
        | None -> ()
        | Some pg ->
          e.d_pg <- pg;
          e.d_wg <- Memory.page_generation pg);
        t.dc_hits <- t.dc_hits + 1;
        if e.d_warm then t.dc_warm_hits <- t.dc_warm_hits + 1;
        t.dc_streak <- 0;
        t.last_cost <- e.d_cost;
        e.d_insn
      end
      else begin
        t.dc_misses <- t.dc_misses + 1;
        let insn = Decode.word w in
        let cost = cycles_of_insn insn in
        t.last_cost <- cost;
        (* an injected PC can be misaligned; don't cache a fetch that straddles
           two pages (a single generation could not validate it) *)
        (if t.dc_streak < dc_bypass_streak then begin
           t.dc_streak <- t.dc_streak + 1;
           if pc land 0xFFF <= Memory.page_size - 4 then
             match Memory.page_at_opt t.mem pc with
             | None -> ()
             | Some pg ->
               e.d_pc <- pc;
               e.d_insn <- insn;
               e.d_word <- w;
               e.d_cost <- cost;
               e.d_pg <- pg;
               e.d_wg <- Memory.page_generation pg;
               e.d_warm <- t.warming;
               if t.warming then t.prewarmed <- t.prewarmed + 1
         end);
        insn
      end
    end
  end

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

(* --- the step loop -------------------------------------------------------- *)

type step_result =
  | Retired
  | Halted
  | Hit_ibp
  | Hit_dbp of Debug_regs.data_hit
  | Stopped
  | Faulted of Exn.t

let deliver_fault t pc e =
  t.pc <- pc;
  Counters.idle t.counters exception_dispatch_cycles;
  (* With machine checks disabled (MSR[ME]=0) the processor checkstops: no
     crash handler runs and no dump escapes. *)
  match e with
  | Exn.Machine_check _ when t.msr land msr_me = 0 ->
    Faulted (Exn.Software_panic { message = "checkstop" })
  | e -> Faulted e

let step ?(skip_ibp = false) t =
  let pc = t.pc in
  if (not skip_ibp) && Debug_regs.check_exec t.dr pc then Hit_ibp
  else begin
    (match t.pending_hit with Some _ -> t.pending_hit <- None | None -> ());
    t.stopped <- false;
    match decode_at t pc with
    | exception Cpu_fault e -> deliver_fault t pc e
    | exception Decode.Undefined_opcode -> deliver_fault t pc Exn.Program_illegal
    | insn ->
      t.pc <- Word.add pc 4;
      (match exec t pc insn with
      | exception Cpu_fault e -> deliver_fault t pc e
      | () ->
        Counters.retire t.counters ~cost:t.last_cost;
        if t.stopped then Stopped
        else
          match t.pending_hit with
          | Some h -> Hit_dbp h
          | None -> Retired)
  end

(* --- superblock translation ---------------------------------------------- *)

(* Instructions excluded from blocks and executed by the precise [step]:
   [Sc]/[Rfi] raise or rewrite the MSR, and [Mtspr]/[Mtmsr] can poison
   translation, which the per-fetch [check_translation] of the precise path
   must observe on the very next instruction. *)
let is_sb_terminator = function
  | Sc | Rfi | Mtspr _ | Mtmsr _ -> true
  | _ -> false

(* Unconditional redirects. The builder follows [B] (its target is static)
   and ends the block at [Bclr]/[Bcctr], whose targets live in LR/CTR and
   flow through the side-effecting [indirect_target]. [prewarm] also uses
   this set to seed block entry points at redirect fall-throughs. *)
let sb_ends_block = function B _ | Bclr _ | Bcctr _ -> true | _ -> false

let sb_is_cf = function B _ | Bc _ | Bclr _ | Bcctr _ -> true | _ -> false

(* Exact on this ISA: [data_write] is reached only from these forms. *)
let sb_may_store = function Store _ | Store_idx _ | Stmw _ -> true | _ -> false

(* Decode a run of instructions starting at the 4-aligned [pc] into [b],
   following statically-known branch targets: [b]/[bl] continue at the
   target, and a backward [bc] is predicted taken (the common shape of a
   loop back-edge), so tight loops unroll into the block instead of paying
   the block-entry overhead every iteration. [b_succ] records each
   micro-op's expected post-exec pc; execution compares PC against it and
   leaves the block precisely — with PC already exact — on any mispredicted
   or indirect redirect. Returns [true] when at least one micro-op was
   recorded. Stops at capacity, a terminator, an indirect redirect, the
   two-distinct-page cap, or a fetch/decode fault — the faulting pc is left
   outside the block, so the precise interpreter delivers that exception
   with exact semantics if execution ever reaches it. A terminator at [pc]
   itself still installs [b], as a zero-length block validated by the
   terminator's page: the run loop then steps that pc precisely at once
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
       if !p < 0 || !p > 0xFFFFFF00 then raise Exit;
       let insn = decode_at t !p in
       if is_sb_terminator insn then begin
         entry_terminator := !n = 0 && claim !p;
         raise Exit
       end;
       if not (claim !p) then raise Exit;
       let next = !p + 4 in
       let succ, ends =
         match insn with
         | B (li, aa, _) ->
           (Word.mask (if aa then li else Word.add !p li), false)
         | Bc (_, _, bd, aa, _) ->
           let target = Word.mask (if aa then bd else Word.add !p bd) in
           if target < !p then (target, false)  (* backward: predict taken *)
           else (next, false)
         | i -> (next, sb_ends_block i)
       in
       b.b_insns.(!n) <- insn;
       b.b_pcs.(!n) <- !p;
       b.b_succ.(!n) <- succ;
       b.b_flags.(!n) <-
         t.last_cost
         lor (if sb_is_cf insn then sb_flag_cf else 0)
         lor (if sb_may_store insn then sb_flag_st else 0);
       incr n;
       p := succ;
       if ends then raise Exit
     done
   with Exit | Cpu_fault _ | Decode.Undefined_opcode -> ());
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

let sb_slot_of pc = (pc lsr 2) land sbcache_mask

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

let sb_poisoned t =
  t.translation_broken || t.bat_poisoned || t.sdr1_poisoned
  || t.sr_poisoned.(12) || t.sr_poisoned.(13) || t.sr_poisoned.(14)
  || t.sr_poisoned.(15)

(* Run up to [max_steps] instructions, preferring translated superblock
   execution and falling back to the precise [step] whenever translation
   cannot reproduce its observable semantics (an armed execute breakpoint at
   the block entry, poisoned address translation, misaligned or wrapping pc,
   a terminator instruction). Returns the first event, or [Retired] when the
   budget was exhausted without one, and leaves the count [n] of cleanly
   retired instructions in [run_retired]. For [Hit_dbp]/[Stopped] the
   event-carrying instruction has retired (counters include it) but is not
   part of [n]; for [Faulted] the faulting instruction did not retire and
   the exception has been delivered exactly as [step] would. *)
let run t ~max_steps =
  if max_steps <= 0 then invalid_arg "Cpu.run: max_steps must be positive";
  let retired = ref 0 in
  let fin = ref None in
  (* [sb_enabled] and the debug registers cannot change inside one [run]
     call; translation poison can, but only under the precise interpreter
     ([Mtspr]/[Mtmsr]/[Rfi] are terminators), so the eligibility chain is
     re-evaluated after fallback excursions instead of at every entry *)
  let forced_static = not t.sb_enabled in
  let bp_armed = Debug_regs.exec_armed t.dr in
  let forced = ref (forced_static || sb_poisoned t) in
  while Option.is_none !fin && !retired < max_steps do
    let pc = t.pc in
    if
      !forced
      || pc land 3 <> 0
      || pc < 0
      || pc > 0xFFFFFF00  (* a block near the top of the space would wrap *)
      || (bp_armed && Debug_regs.check_exec t.dr pc)  (* [step] reports it *)
    then begin
      t.sb_fallbacks <- t.sb_fallbacks + 1;
      (match step t with
      | Retired | Halted -> incr retired
      | r -> fin := Some r);
      forced := forced_static || sb_poisoned t
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
        forced := forced_static || sb_poisoned t
      end
      else begin
        (* the tight loop: no per-step dispatch, batched accounting *)
        let insns = b.b_insns and flags = b.b_flags in
        let pcs = b.b_pcs and succs = b.b_succ in
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
            (* a not-taken branch leaves PC untouched, so pre-set the
               fall-through for the successor comparison below; non-branch
               micro-ops never read or write PC and the write is elided *)
            if fl land sb_flag_cf <> 0 then t.pc <- mpc + 4;
            exec t mpc (Array.unsafe_get insns k);
            cyc := !cyc + (fl land sb_cost_mask);
            incr i;
            if fl land sb_flag_cf <> 0 then begin
              if t.stopped then begin
                fin := Some Stopped;
                exit_block := true
              end
              else if t.pc <> Array.unsafe_get succs k then
                exit_block := true  (* off the predicted path, PC exact *)
            end
            else begin
              (if watched then
                 match t.pending_hit with
                 | Some h ->
                   t.pc <- Array.unsafe_get succs k;
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
                t.pc <- Array.unsafe_get succs k;
                exit_block := true  (* store into the block itself *)
              end
            end
          done
        with Cpu_fault e ->
          (* the faulting micro-op does not retire; the completed prefix is
             charged below, then the fault is delivered exactly as [step]
             would deliver it *)
          exit_block := true;
          fin := Some (deliver_fault t (Array.unsafe_get pcs !i) e));
        if (not !exit_block) && !i > 0 then
          (* natural end: the elided per-op PC writes collapse into one
             store of the last micro-op's successor *)
          t.pc <- Array.unsafe_get succs (!i - 1);
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
        (* decode pass: warm every aligned word, collecting block entry
           points (branch targets and fall-throughs of block enders) *)
        let entries = ref [ addr ] in
        let p = ref addr in
        while !p < fin do
          t.dc_streak <- 0;
          (match decode_at t !p with
          | insn ->
            (match insn with
            | B (li, aa, _) -> entries := (if aa then li else Word.add !p li) :: !entries
            | Bc (_, _, bd, aa, _) ->
              entries := (if aa then bd else Word.add !p bd) :: !entries
            | _ -> ());
            if sb_ends_block insn || is_sb_terminator insn then
              entries := (!p + 4) :: !entries
          | exception Cpu_fault _ -> ()
          | exception Decode.Undefined_opcode -> ());
          p := !p + 4
        done;
        if t.sb_enabled then
          List.iter
            (fun e ->
              if e >= addr && e < fin && e land 3 = 0 then begin
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
