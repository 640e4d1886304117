(* The translation caches both CPUs keep: the decode cache, the two-way
   superblock table and their counters. Polymorphic in the ISA's decoded
   instruction (['op]); the fetch path and the run loop that use them are
   compiled into each ISA library (engine/), so their calls into the ISA
   are direct. *)

(* Decode-cache entry: the instruction decoded at [d_pc], valid while the
   generations of the page(s) its bytes were fetched from are unchanged. Two
   page slots because an instruction may straddle a page boundary (a CISC
   instruction, or a RISC word at an injected misaligned pc); a one-page
   entry names its page twice. [d_bytes] holds the raw bytes [d_op] was
   decoded from, for byte revalidation. *)
type 'op dentry = {
  mutable d_pc : int;  (* -1: empty *)
  mutable d_op : 'op;
  mutable d_cost : int;  (* the ISA's cycles_of_insn, cached with the decode *)
  d_bytes : Bytes.t;
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
   generation and the block misses on entry. *)
type 'op block = {
  mutable b_pc : int;  (* entry pc, or -1 *)
  mutable b_len : int;
  b_ops : 'op array;
  b_pcs : int array;  (* per micro-op pc (non-contiguous across branches) *)
  b_succ : int array;  (* expected post-exec pc: the followed branch target,
                          else the fall-through *)
  b_flags : int array;  (* bits 0-15 cycle cost; bit 16 cf; bit 17 may-store *)
  mutable b_pg1 : Memory.page;  (* backing pages (at most two distinct) *)
  mutable b_wg1 : int;
  mutable b_pg2 : Memory.page;
  mutable b_wg2 : int;
}

type 'op t = {
  dcache : 'op dentry array;  (* PC-keyed, indexed by the ISA's [slot] *)
  bypass_bytes : Bytes.t;  (* where a bypass-streak decode records its bytes *)
  dc_enabled : bool;
  mutable dc_hits : int;
  mutable dc_misses : int;
  mutable dc_streak : int;  (* consecutive misses; long streaks bypass insert *)
  mutable dc_warm_hits : int;  (* decode hits on pre-warmed entries *)
  mutable last_cost : int;  (* cycle cost of the insn the fetch path returned *)
  mutable prewarmed : int;  (* entries + blocks installed by [prewarm] *)
  mutable warming : bool;  (* inside [prewarm]: mark inserts as warm *)
  nop : 'op;  (* filler for fresh entries and blocks *)
  no_entry : 'op dentry;
  empty : 'op block;
  way0 : 'op block array;
  way1 : 'op block array;  (* rebuilds of blocks stale in this trial *)
  sb_enabled : bool;
  mutable sb_hits : int;  (* block entries served from the table *)
  mutable sb_blocks : int;  (* blocks built *)
  mutable sb_insns : int;  (* micro-ops retired inside blocks *)
  mutable sb_fallbacks : int;  (* precise-interpreter excursions *)
  mutable march_steps : int;  (* steps retired by the ISA's [march] *)
  mutable run_retired : int;  (* cleanly retired by the last run *)
}

(* After this many consecutive decode misses, stop inserting: the workload is
   marching through instructions it will never revisit (wild execution after
   a corrupted jump), and every insert would promote the freshly decoded
   instruction into the major heap for nothing. Hits reset the streak, so a
   loop that comes back around re-arms caching within one pass. Blocks are
   not built during such a streak either. *)
let bypass_streak = 256

(* 32 micro-ops. The builder follows direct branches, so the ops need not be
   contiguous; it caps a block at two distinct backing pages so two
   generation checks validate the whole run. *)
let sb_max = 32

(* The longest instruction either ISA encodes (the x86 limit), in bytes. *)
let insn_max = 15

let cost_mask = 0xFFFF
let flag_cf = 0x10000
let flag_st = 0x20000

(* Every slot of a fresh table holds the table's one [empty] block, and
   every decode-cache slot its one [no_entry]; [block_at] and
   [entry_at] replace them with private ones on the first fill there, so a
   CPU allocates only what it fills. Neither is ever written: [empty]'s
   generation [-1] is one no page ever has, so it never validates, and
   [no_entry]'s pc is [-1]. They are one per table because a shared
   mutable polymorphic value would be weak. The decode cache, like the
   block table, has [2^slot_bits] slots, indexed by the ISA's [slot]. *)
let create mem ~slot_bits ~nop =
  let empty =
    {
      b_pc = -1;
      b_len = 0;
      b_ops = [||];
      b_pcs = [||];
      b_succ = [||];
      b_flags = [||];
      b_pg1 = Memory.null_page;
      b_wg1 = -1;
      b_pg2 = Memory.null_page;
      b_wg2 = -1;
    }
  in
  let no_entry =
    {
      d_pc = -1;
      d_op = nop;
      d_cost = 0;
      d_bytes = Bytes.empty;
      d_pg1 = Memory.null_page;
      d_wg1 = -1;
      d_pg2 = Memory.null_page;
      d_wg2 = -1;
      d_warm = false;
    }
  in
  {
    dcache = Array.make (1 lsl slot_bits) no_entry;
    bypass_bytes = Bytes.create insn_max;
    dc_enabled = Memory.fast_paths mem;
    dc_hits = 0;
    dc_misses = 0;
    dc_streak = 0;
    dc_warm_hits = 0;
    last_cost = 0;
    prewarmed = 0;
    warming = false;
    nop;
    no_entry;
    empty;
    way0 = Array.make (1 lsl slot_bits) empty;
    way1 = Array.make (1 lsl slot_bits) empty;
    sb_enabled = Memory.superblocks mem;
    sb_hits = 0;
    sb_blocks = 0;
    sb_insns = 0;
    sb_fallbacks = 0;
    march_steps = 0;
    run_retired = 0;
  }

(* The decode-cache entry in [slot], first replacing the shared [no_entry]
   with a private one, so it can be filled. *)
let entry_at c slot =
  let e = Array.unsafe_get c.dcache slot in
  if e != c.no_entry then e
  else begin
    let e = { c.no_entry with d_bytes = Bytes.create insn_max } in
    Array.unsafe_set c.dcache slot e;
    e
  end

let[@inline] fresh b =
  Memory.page_generation b.b_pg1 = b.b_wg1
  && Memory.page_generation b.b_pg2 = b.b_wg2

let[@inline] valid b pc = b.b_pc = pc && fresh b

(* The block in [slot] of [table], first replacing the shared empty block
   with a private one, so it can be built into. *)
let block_at c table slot =
  let b = Array.unsafe_get table slot in
  if b != c.empty then b
  else begin
    let b =
      {
        c.empty with
        b_ops = Array.make sb_max c.nop;
        b_pcs = Array.make sb_max 0;
        b_succ = Array.make sb_max 0;
        b_flags = Array.make sb_max 0;
        b_wg1 = 0;
        b_wg2 = 0;
      }
    in
    Array.unsafe_set table slot b;
    b
  end

(* The valid block cached for entry [pc], from way 0 or else way 1, or
   [c.empty] when neither validates. *)
let[@inline] lookup c slot pc =
  let b = Array.unsafe_get c.way0 slot in
  if valid b pc then b
  else
    let b = Array.unsafe_get c.way1 slot in
    if valid b pc then b else c.empty

(* The block to build entry [pc] into: way 0, unless way 0 holds [pc]'s
   block on a page mutated since the last restore. That block went stale in
   this trial (an injected flip, typically) and validates again once the
   restore rewinds the page's generation, so the rebuild goes to way 1 and
   leaves it in place. Placement affects speed only: every entry is still
   validated by its generations. *)
let victim c slot pc =
  let b = Array.unsafe_get c.way0 slot in
  if b.b_pc = pc && (Memory.page_dirty b.b_pg1 || Memory.page_dirty b.b_pg2) then
    block_at c c.way1 slot
  else block_at c c.way0 slot

(* How many leading micro-ops of [b] may run while execute breakpoints are
   armed: the block is cut just before its first micro-op past the entry
   whose pc is armed, so the next loop iteration reaches that pc as a block
   entry and the precise step reports [Hit_ibp] there, as the precise loop
   would. The precise loop tests breakpoints only at the pcs it executes,
   and these are the same pcs, so the cut is exact. Call with [k = 1]. *)
let rec cut dr b limit k =
  if k >= limit || Debug_regs.check_exec dr (Array.unsafe_get b.b_pcs k) then k
  else cut dr b limit (k + 1)

(* The decode, pre-warm and superblock counters; the memory fields are
   zero. *)
let stats c =
  {
    Cache_stats.zero with
    Cache_stats.cs_decode_hits = c.dc_hits;
    cs_decode_misses = c.dc_misses;
    cs_decode_warm_hits = c.dc_warm_hits;
    cs_prewarmed = c.prewarmed;
    cs_sb_hits = c.sb_hits;
    cs_sb_blocks = c.sb_blocks;
    cs_sb_insns = c.sb_insns;
    cs_sb_fallbacks = c.sb_fallbacks;
    cs_march_steps = c.march_steps;
  }
