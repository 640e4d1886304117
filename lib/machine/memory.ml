type access = Read | Write | Execute

type fault_kind = Unmapped | Protection

exception Fault of { addr : int; access : access; kind : fault_kind }

type perm = { readable : bool; writable : bool; executable : bool }

let perm_rw = { readable = true; writable = true; executable = false }
let perm_ro = { readable = true; writable = false; executable = false }
let perm_rx = { readable = true; writable = false; executable = true }
let perm_rwx = { readable = true; writable = true; executable = true }

let page_size = 4096
let page_shift = 12
let offset_mask = page_size - 1

(* [wgen] names this page object's contents: every mutation (content write,
   permission change, unmap or drop) sets it to a fresh value from the owning
   memory's clock, and a restore from that memory's own snapshot sets it back
   to the value the snapshot recorded, together with the recorded bytes and
   permissions. So one page object never carries the same generation with
   different contents, and translations validated against it come back
   valid after the per-trial rewind. [dirty] marks membership in the owning
   memory's dirty list since the last restore. *)
type page = {
  data : Bytes.t;
  mutable perm : perm;
  mutable wgen : int;
  mutable dirty : bool;
}

let null_page =
  { data = Bytes.create 0; perm = perm_rw; wgen = min_int; dirty = true }

let page_generation p = p.wgen
let page_dirty p = p.dirty
let page_perm p = p.perm

let[@inline] zero_run p off len =
  let stop = if off + len < Bytes.length p.data then off + len else Bytes.length p.data in
  let i = ref off in
  while !i < stop && Bytes.unsafe_get p.data !i = '\000' do
    incr i
  done;
  !i - off

(* Software TLB: per-access-class direct-mapped (page index -> page). *)
let tlb_bits = 7
let tlb_size = 1 lsl tlb_bits
let tlb_mask = tlb_size - 1

let fast_default = ref true

let set_fast_paths_default b = fast_default := b

(* Superblock translation is toggled the same way: a process-global default
   captured by [create], mirrored by the CPUs into their own enable flag.
   Kept separate from [fast_default] so the differential tests can exercise
   all four combinations of {decode caches, superblocks}. *)
let sb_default = ref true

let set_superblocks_default b = sb_default := b

(* The page table: a two-level radix over the 20-bit page index, 1024
   leaves of 1024 slots. A leaf is allocated when its first page is mapped
   ([[||]] stands for an absent one) and kept once allocated. [find] returns
   the stored option, so a lookup allocates nothing, and [iter] visits
   pages in index order. *)
module Radix = struct
  let bits = 10
  let fan = 1 lsl bits
  let mask = fan - 1

  type 'a t = { top : 'a option array array; mutable count : int }

  let create () = { top = Array.make fan [||]; count = 0 }

  (* [idx] is a page index, below 2^20, so [idx lsr bits] is a top slot *)
  let[@inline] find r idx =
    let leaf = Array.unsafe_get r.top (idx lsr bits) in
    if Array.length leaf = 0 then None else Array.unsafe_get leaf (idx land mask)

  let mem r idx = Option.is_some (find r idx)

  let set r idx v =
    let hi = idx lsr bits in
    let leaf =
      match r.top.(hi) with
      | [||] ->
        let leaf = Array.make fan None in
        r.top.(hi) <- leaf;
        leaf
      | leaf -> leaf
    in
    if Option.is_none leaf.(idx land mask) then r.count <- r.count + 1;
    leaf.(idx land mask) <- Some v

  let remove r idx =
    let leaf = r.top.(idx lsr bits) in
    if Array.length leaf > 0 && Option.is_some leaf.(idx land mask) then begin
      leaf.(idx land mask) <- None;
      r.count <- r.count - 1
    end

  let iter f r =
    Array.iteri
      (fun hi leaf ->
        Array.iteri
          (fun lo slot -> match slot with Some v -> f ((hi lsl bits) lor lo) v | None -> ())
          leaf)
      r.top
end

type t = {
  id : int;  (* tells this memory's snapshots from other memories' *)
  adopted : int;
      (* the snapshot this memory was built from ({!of_snapshot}), whose
         recorded generations it trusts as its own; -1 for none *)
  mutable clock : int;  (* the last generation handed out *)
  pages : page Radix.t;
  (* Direct-mapped ("lowmem") window: pages in [lo, hi) materialise
     zero-filled on first access instead of faulting, as the kernel's linear
     mapping of physical memory would. *)
  mutable auto_lo : int;
  mutable auto_hi : int;
  mutable auto_perm : perm;
  fast : bool;  (* fast paths enabled (TLB, word accessors, dirty restore) *)
  sb : bool;  (* superblock translation enabled for CPUs on this memory *)
  tlb_r_idx : int array;
  tlb_r_pg : page array;
  tlb_w_idx : int array;
  tlb_w_pg : page array;
  tlb_x_idx : int array;
  tlb_x_pg : page array;
  mutable dirty_list : int list;  (* page indices touched since last restore *)
  mutable last_restored : int;  (* snapshot id of the last restore, or -1 *)
  mutable stat_tlb_hits : int;
  mutable stat_tlb_misses : int;
  mutable stat_restore_fast : int;
  mutable stat_restore_full : int;
  mutable stat_restore_pages : int;
}

(* Process-global, like snapshot ids below, so no two memories share one. *)
let memory_ids = Atomic.make 0

let make ~adopted ~clock =
  {
    id = Atomic.fetch_and_add memory_ids 1;
    adopted;
    clock;
    pages = Radix.create ();
    auto_lo = 0;
    auto_hi = 0;
    auto_perm = perm_rw;
    fast = !fast_default;
    sb = !sb_default;
    tlb_r_idx = Array.make tlb_size (-1);
    tlb_r_pg = Array.make tlb_size null_page;
    tlb_w_idx = Array.make tlb_size (-1);
    tlb_w_pg = Array.make tlb_size null_page;
    tlb_x_idx = Array.make tlb_size (-1);
    tlb_x_pg = Array.make tlb_size null_page;
    dirty_list = [];
    last_restored = -1;
    stat_tlb_hits = 0;
    stat_tlb_misses = 0;
    stat_restore_fast = 0;
    stat_restore_full = 0;
    stat_restore_pages = 0;
  }

let create () = make ~adopted:(-1) ~clock:0

let fast_paths t = t.fast
let superblocks t = t.sb
let matches_defaults t = t.fast = !fast_default && t.sb = !sb_default

let tlb_flush t =
  Array.fill t.tlb_r_idx 0 tlb_size (-1);
  Array.fill t.tlb_w_idx 0 tlb_size (-1);
  Array.fill t.tlb_x_idx 0 tlb_size (-1)

let set_auto_map t ~lo ~hi ~perm =
  t.auto_lo <- lo;
  t.auto_hi <- hi;
  t.auto_perm <- perm

let page_index addr = (addr land 0xFFFFFFFF) lsr page_shift

let[@inline] fresh t =
  t.clock <- t.clock + 1;
  t.clock

(* Record a mutation of [page] (at table slot [idx]): give it a fresh
   generation for the translation caches and enrol it in the dirty list for
   the next restore. *)
let[@inline] touch t idx page =
  page.wgen <- fresh t;
  if not page.dirty then begin
    page.dirty <- true;
    t.dirty_list <- idx :: t.dirty_list
  end

let map t ~addr ~size ~perm =
  let first = page_index addr and last = page_index (addr + size - 1) in
  for idx = first to last do
    match Radix.find t.pages idx with
    | Some page ->
      page.perm <- perm;
      touch t idx page
    | None ->
      let page =
        { data = Bytes.make page_size '\000'; perm; wgen = 0; dirty = false }
      in
      Radix.set t.pages idx page;
      touch t idx page
  done;
  tlb_flush t

let unmap t ~addr ~size =
  let first = page_index addr and last = page_index (addr + size - 1) in
  for idx = first to last do
    (match Radix.find t.pages idx with
    | Some page -> touch t idx page  (* invalidate decode entries; remember *)
    | None -> ());
    Radix.remove t.pages idx
  done;
  tlb_flush t

let set_perm t ~addr ~size ~perm =
  let first = page_index addr and last = page_index (addr + size - 1) in
  (* validate the whole range before mutating anything, so a failure leaves
     every page's permissions untouched *)
  for idx = first to last do
    if not (Radix.mem t.pages idx) then
      invalid_arg "Memory.set_perm: unmapped page in range"
  done;
  for idx = first to last do
    let page = Option.get (Radix.find t.pages idx) in
    page.perm <- perm;
    touch t idx page
  done;
  tlb_flush t

let is_mapped t addr = Radix.mem t.pages (page_index addr)

let demand_map t addr access =
  let a = addr land 0xFFFFFFFF in
  if a >= t.auto_lo && a < t.auto_hi then begin
    let page =
      { data = Bytes.make page_size '\000'; perm = t.auto_perm;
        wgen = 0; dirty = false }
    in
    let idx = page_index addr in
    Radix.set t.pages idx page;
    touch t idx page;
    page
  end
  else raise (Fault { addr; access; kind = Unmapped })

let[@inline] find t addr access allowed =
  match Radix.find t.pages (page_index addr) with
  | None ->
    let page = demand_map t addr access in
    if allowed page.perm then page else raise (Fault { addr; access; kind = Protection })
  | Some page ->
    if allowed page.perm then page
    else raise (Fault { addr; access; kind = Protection })

let[@inline] readable p = p.readable
let[@inline] writable p = p.writable
let[@inline] executable p = p.executable

(* TLB-fronted page lookups, one per access class. A hit skips the page table
   and the permission check (the entry was validated on insert and every
   map/unmap/set_perm/restore flushes). Write lookups also dirty the page. *)

let[@inline] read_page t addr =
  let idx = page_index addr in
  let slot = idx land tlb_mask in
  if Array.unsafe_get t.tlb_r_idx slot = idx then begin
    t.stat_tlb_hits <- t.stat_tlb_hits + 1;
    Array.unsafe_get t.tlb_r_pg slot
  end
  else begin
    t.stat_tlb_misses <- t.stat_tlb_misses + 1;
    let page = find t addr Read readable in
    if t.fast then begin
      Array.unsafe_set t.tlb_r_idx slot idx;
      Array.unsafe_set t.tlb_r_pg slot page
    end;
    page
  end

let[@inline] write_page t addr =
  let idx = page_index addr in
  let slot = idx land tlb_mask in
  if Array.unsafe_get t.tlb_w_idx slot = idx then begin
    t.stat_tlb_hits <- t.stat_tlb_hits + 1;
    let page = Array.unsafe_get t.tlb_w_pg slot in
    touch t idx page;
    page
  end
  else begin
    t.stat_tlb_misses <- t.stat_tlb_misses + 1;
    let page = find t addr Write writable in
    if t.fast then begin
      Array.unsafe_set t.tlb_w_idx slot idx;
      Array.unsafe_set t.tlb_w_pg slot page
    end;
    touch t idx page;
    page
  end

let[@inline] exec_page t addr =
  let idx = page_index addr in
  let slot = idx land tlb_mask in
  if Array.unsafe_get t.tlb_x_idx slot = idx then begin
    t.stat_tlb_hits <- t.stat_tlb_hits + 1;
    Array.unsafe_get t.tlb_x_pg slot
  end
  else begin
    t.stat_tlb_misses <- t.stat_tlb_misses + 1;
    let page = find t addr Execute executable in
    if t.fast then begin
      Array.unsafe_set t.tlb_x_idx slot idx;
      Array.unsafe_set t.tlb_x_pg slot page
    end;
    page
  end

let[@inline] tlb_hit idxs pgs idx =
  let slot = idx land tlb_mask in
  if Array.unsafe_get idxs slot = idx then Array.unsafe_get pgs slot else null_page

let[@inline] tlb_page t access addr =
  let idx = page_index addr in
  match access with
  | Read -> tlb_hit t.tlb_r_idx t.tlb_r_pg idx
  | Write -> tlb_hit t.tlb_w_idx t.tlb_w_pg idx
  | Execute -> tlb_hit t.tlb_x_idx t.tlb_x_pg idx

let[@inline] load8 t addr =
  let page = read_page t addr in
  Char.code (Bytes.unsafe_get page.data (addr land offset_mask))

let[@inline] store8 t addr v =
  let page = write_page t addr in
  Bytes.unsafe_set page.data (addr land offset_mask) (Char.unsafe_chr (v land 0xFF))

let[@inline] fetch8 t addr =
  let page = exec_page t addr in
  Char.code (Bytes.unsafe_get page.data (addr land offset_mask))

(* Bytes are loaded lowest-address first so that a fault on a partially
   unmapped access reports the architecturally expected (first) address.
   Accesses contained in one page take a whole-word fast path; the byte-wise
   fallback keeps cross-page fault semantics exact. *)

let load16_le t addr =
  if t.fast && addr land offset_mask <= page_size - 2 then
    let page = read_page t addr in
    Bytes.get_uint16_le page.data (addr land offset_mask)
  else begin
    let b0 = load8 t addr in
    let b1 = load8 t (addr + 1) in
    b0 lor (b1 lsl 8)
  end

let load32_le t addr =
  if t.fast && addr land offset_mask <= page_size - 4 then
    let page = read_page t addr in
    Int32.to_int (Bytes.get_int32_le page.data (addr land offset_mask))
    land 0xFFFFFFFF
  else begin
    let b0 = load8 t addr in
    let b1 = load8 t (addr + 1) in
    let b2 = load8 t (addr + 2) in
    let b3 = load8 t (addr + 3) in
    b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)
  end

let load16_be t addr =
  if t.fast && addr land offset_mask <= page_size - 2 then
    let page = read_page t addr in
    Bytes.get_uint16_be page.data (addr land offset_mask)
  else begin
    let b0 = load8 t addr in
    let b1 = load8 t (addr + 1) in
    (b0 lsl 8) lor b1
  end

let load32_be t addr =
  if t.fast && addr land offset_mask <= page_size - 4 then
    let page = read_page t addr in
    Int32.to_int (Bytes.get_int32_be page.data (addr land offset_mask))
    land 0xFFFFFFFF
  else begin
    let b0 = load8 t addr in
    let b1 = load8 t (addr + 1) in
    let b2 = load8 t (addr + 2) in
    let b3 = load8 t (addr + 3) in
    (b0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3
  end

let store16_le t addr v =
  if t.fast && addr land offset_mask <= page_size - 2 then
    let page = write_page t addr in
    Bytes.set_uint16_le page.data (addr land offset_mask) (v land 0xFFFF)
  else begin
    store8 t addr v;
    store8 t (addr + 1) (v lsr 8)
  end

let store32_le t addr v =
  if t.fast && addr land offset_mask <= page_size - 4 then
    let page = write_page t addr in
    Bytes.set_int32_le page.data (addr land offset_mask) (Int32.of_int v)
  else begin
    store8 t addr v;
    store8 t (addr + 1) (v lsr 8);
    store8 t (addr + 2) (v lsr 16);
    store8 t (addr + 3) (v lsr 24)
  end

let store16_be t addr v =
  if t.fast && addr land offset_mask <= page_size - 2 then
    let page = write_page t addr in
    Bytes.set_uint16_be page.data (addr land offset_mask) (v land 0xFFFF)
  else begin
    store8 t addr (v lsr 8);
    store8 t (addr + 1) v
  end

let store32_be t addr v =
  if t.fast && addr land offset_mask <= page_size - 4 then
    let page = write_page t addr in
    Bytes.set_int32_be page.data (addr land offset_mask) (Int32.of_int v)
  else begin
    store8 t addr (v lsr 24);
    store8 t (addr + 1) (v lsr 16);
    store8 t (addr + 2) (v lsr 8);
    store8 t (addr + 3) v
  end

let fetch32_be t addr =
  if t.fast && addr land offset_mask <= page_size - 4 then
    let page = exec_page t addr in
    Int32.to_int (Bytes.get_int32_be page.data (addr land offset_mask))
    land 0xFFFFFFFF
  else begin
    let b0 = fetch8 t addr in
    let b1 = fetch8 t (addr + 1) in
    let b2 = fetch8 t (addr + 2) in
    let b3 = fetch8 t (addr + 3) in
    (b0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3
  end

let peek_page t addr =
  match Radix.find t.pages (page_index addr) with
  | None -> raise (Fault { addr; access = Read; kind = Unmapped })
  | Some page -> page

let page_at_opt t addr = Radix.find t.pages (page_index addr)

let peek8 t addr =
  let page = peek_page t addr in
  Char.code (Bytes.get page.data (addr land offset_mask))

let poke8 t addr v =
  let page = peek_page t addr in
  touch t (page_index addr) page;
  Bytes.set page.data (addr land offset_mask) (Char.chr (v land 0xFF))

let peek32_le t addr =
  if t.fast && addr land offset_mask <= page_size - 4 then
    let page = peek_page t addr in
    Int32.to_int (Bytes.get_int32_le page.data (addr land offset_mask))
    land 0xFFFFFFFF
  else begin
    let b0 = peek8 t addr in
    let b1 = peek8 t (addr + 1) in
    let b2 = peek8 t (addr + 2) in
    let b3 = peek8 t (addr + 3) in
    b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)
  end

let peek32_be t addr =
  if t.fast && addr land offset_mask <= page_size - 4 then
    let page = peek_page t addr in
    Int32.to_int (Bytes.get_int32_be page.data (addr land offset_mask))
    land 0xFFFFFFFF
  else begin
    let b0 = peek8 t addr in
    let b1 = peek8 t (addr + 1) in
    let b2 = peek8 t (addr + 2) in
    let b3 = peek8 t (addr + 3) in
    (b0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3
  end

let poke32_le t addr v =
  if t.fast && addr land offset_mask <= page_size - 4 then begin
    let page = peek_page t addr in
    touch t (page_index addr) page;
    Bytes.set_int32_le page.data (addr land offset_mask) (Int32.of_int v)
  end
  else begin
    poke8 t addr v;
    poke8 t (addr + 1) (v lsr 8);
    poke8 t (addr + 2) (v lsr 16);
    poke8 t (addr + 3) (v lsr 24)
  end

let poke32_be t addr v =
  if t.fast && addr land offset_mask <= page_size - 4 then begin
    let page = peek_page t addr in
    touch t (page_index addr) page;
    Bytes.set_int32_be page.data (addr land offset_mask) (Int32.of_int v)
  end
  else begin
    poke8 t addr (v lsr 24);
    poke8 t (addr + 1) (v lsr 16);
    poke8 t (addr + 2) (v lsr 8);
    poke8 t (addr + 3) v
  end

let flip_bit t ~addr ~bit =
  assert (bit >= 0 && bit < 8);
  poke8 t addr (peek8 t addr lxor (1 lsl bit))

(* One blit and one [touch] per page the run covers. Like a [poke8] per
   byte: an unmapped page raises [Fault] at its first byte's address, after
   the earlier pages are written. *)
let blit_string t ~addr s =
  let len = String.length s in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let page = peek_page t a in
    let off = a land offset_mask in
    let n = min (len - !i) (page_size - off) in
    touch t (page_index a) page;
    Bytes.blit_string s !i page.data off n;
    i := !i + n
  done

let snapshot_page_count t = t.pages.Radix.count

(* One captured page: its bytes, permissions and the generation that names
   them. *)
type spage = { sp_idx : int; sp_data : Bytes.t; sp_perm : perm; sp_gen : int }

type snapshot = {
  s_id : int;
  s_mem : int;  (* id of the memory the snapshot was taken from *)
  s_clock : int;  (* that memory's clock: no recorded generation exceeds it *)
  s_pages : spage array;  (* in page-index order *)
  s_index : spage Radix.t;
  s_auto_lo : int;
  s_auto_hi : int;
  s_auto_perm : perm;
}

(* Snapshot identities are process-global so that restoring memory A to a
   snapshot of memory B (never done, but type-correct) can't alias ids. *)
let snapshot_ids = Atomic.make 0

let snapshot t =
  let index = Radix.create () in
  let pages = ref [] in
  Radix.iter
    (fun idx p ->
      let sp = { sp_idx = idx; sp_data = Bytes.copy p.data; sp_perm = p.perm; sp_gen = p.wgen } in
      Radix.set index idx sp;
      pages := sp :: !pages)
    t.pages;
  let arr = Array.of_list (List.rev !pages) in
  {
    s_id = Atomic.fetch_and_add snapshot_ids 1;
    s_mem = t.id;
    s_clock = t.clock;
    s_pages = arr;
    s_index = index;
    s_auto_lo = t.auto_lo;
    s_auto_hi = t.auto_hi;
    s_auto_perm = t.auto_perm;
  }

(* The generation a page rewound to [sp] takes: the recorded one when the
   snapshot came from this memory, whose clock issued it for exactly these
   contents, or is the one this memory was built from, whose clock starts
   past every value the snapshot recorded; a fresh one otherwise, since
   another memory's clock may have issued the same value for different
   contents here. *)
let rewound_gen t s sp = if s.s_mem = t.id || s.s_id = t.adopted then sp.sp_gen else fresh t

let rewind t s page sp =
  Bytes.blit sp.sp_data 0 page.data 0 page_size;
  page.perm <- sp.sp_perm;
  page.wgen <- rewound_gen t s sp;
  page.dirty <- false

let recreate t s sp =
  Radix.set t.pages sp.sp_idx
    { data = Bytes.copy sp.sp_data; perm = sp.sp_perm; wgen = rewound_gen t s sp; dirty = false }

let restore_full t s =
  (* blit into pages that still exist, drop the rest, re-create the missing:
     cheaper than rebuilding the table and leaves no stale mappings behind *)
  Radix.iter
    (fun idx page ->
      if not (Radix.mem s.s_index idx) then begin
        page.wgen <- fresh t;
        Radix.remove t.pages idx
      end)
    t.pages;
  Array.iter
    (fun sp ->
      match Radix.find t.pages sp.sp_idx with
      | Some page -> rewind t s page sp
      | None -> recreate t s sp)
    s.s_pages;
  t.stat_restore_full <- t.stat_restore_full + 1;
  t.stat_restore_pages <- t.stat_restore_pages + Array.length s.s_pages

(* Fast path: [t] was already in state [s] at the last restore, so only the
   pages on the dirty list can differ — rewind exactly those. *)
let restore_dirty t s =
  let touched = List.sort_uniq Int.compare t.dirty_list in
  List.iter
    (fun idx ->
      match (Radix.find s.s_index idx, Radix.find t.pages idx) with
      | Some sp, Some page ->
        rewind t s page sp;
        t.stat_restore_pages <- t.stat_restore_pages + 1
      | Some sp, None ->
        recreate t s sp;
        t.stat_restore_pages <- t.stat_restore_pages + 1
      | None, Some page ->
        (* mapped since the snapshot: drop it *)
        page.wgen <- fresh t;
        Radix.remove t.pages idx
      | None, None -> ())
    touched;
  t.stat_restore_fast <- t.stat_restore_fast + 1

let restore t s =
  if t.fast && t.last_restored = s.s_id then restore_dirty t s
  else restore_full t s;
  t.dirty_list <- [];
  t.last_restored <- s.s_id;
  t.auto_lo <- s.s_auto_lo;
  t.auto_hi <- s.s_auto_hi;
  t.auto_perm <- s.s_auto_perm;
  tlb_flush t

let of_snapshot s =
  let t = make ~adopted:s.s_id ~clock:s.s_clock in
  restore t s;
  t

let cache_stats t =
  {
    Cache_stats.cs_tlb_hits = t.stat_tlb_hits;
    cs_tlb_misses = t.stat_tlb_misses;
    cs_restore_fast = t.stat_restore_fast;
    cs_restore_full = t.stat_restore_full;
    cs_restore_pages = t.stat_restore_pages;
    cs_decode_hits = 0;
    cs_decode_misses = 0;
    cs_decode_warm_hits = 0;
    cs_prewarmed = 0;
    cs_sb_hits = 0;
    cs_sb_blocks = 0;
    cs_sb_insns = 0;
    cs_sb_fallbacks = 0;
    cs_march_steps = 0;
  }
