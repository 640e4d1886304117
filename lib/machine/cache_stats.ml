type t = {
  cs_tlb_hits : int;
  cs_tlb_misses : int;
  cs_restore_fast : int;
  cs_restore_full : int;
  cs_restore_pages : int;
  cs_decode_hits : int;
  cs_decode_misses : int;
  cs_decode_warm_hits : int;
  cs_prewarmed : int;
  cs_sb_hits : int;
  cs_sb_blocks : int;
  cs_sb_insns : int;
  cs_sb_fallbacks : int;
  cs_march_steps : int;
}

let zero =
  {
    cs_tlb_hits = 0;
    cs_tlb_misses = 0;
    cs_restore_fast = 0;
    cs_restore_full = 0;
    cs_restore_pages = 0;
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

(* Counters are non-negative and only ever added, so the single overflow
   hazard is the sum wrapping past [max_int] (merging many long-lived
   workers, or a counter that has already saturated). Saturate instead:
   a diagnostic that reads [max_int] is obviously pegged, while a negative
   one silently corrupts every rate computed from it. *)
let sat_add a b =
  let s = a + b in
  if s < 0 then max_int else s

let merge a b =
  {
    cs_tlb_hits = sat_add a.cs_tlb_hits b.cs_tlb_hits;
    cs_tlb_misses = sat_add a.cs_tlb_misses b.cs_tlb_misses;
    cs_restore_fast = sat_add a.cs_restore_fast b.cs_restore_fast;
    cs_restore_full = sat_add a.cs_restore_full b.cs_restore_full;
    cs_restore_pages = sat_add a.cs_restore_pages b.cs_restore_pages;
    cs_decode_hits = sat_add a.cs_decode_hits b.cs_decode_hits;
    cs_decode_misses = sat_add a.cs_decode_misses b.cs_decode_misses;
    cs_decode_warm_hits = sat_add a.cs_decode_warm_hits b.cs_decode_warm_hits;
    cs_prewarmed = sat_add a.cs_prewarmed b.cs_prewarmed;
    cs_sb_hits = sat_add a.cs_sb_hits b.cs_sb_hits;
    cs_sb_blocks = sat_add a.cs_sb_blocks b.cs_sb_blocks;
    cs_sb_insns = sat_add a.cs_sb_insns b.cs_sb_insns;
    cs_sb_fallbacks = sat_add a.cs_sb_fallbacks b.cs_sb_fallbacks;
    cs_march_steps = sat_add a.cs_march_steps b.cs_march_steps;
  }

(* Per-interval view of two monotonic readings. The counters live on the
   machine and survive every snapshot/restore, so "rate of this trial" or
   "rate of this phase" must be computed as a difference of readings, never
   from the lifetime totals. A reading taken after the machine was dropped
   and re-booted (supervisor quarantine) can be smaller than the previous
   one; clamp at zero rather than reporting a negative count. *)
let delta ~before ~after =
  let d a b = max 0 (a - b) in
  {
    cs_tlb_hits = d after.cs_tlb_hits before.cs_tlb_hits;
    cs_tlb_misses = d after.cs_tlb_misses before.cs_tlb_misses;
    cs_restore_fast = d after.cs_restore_fast before.cs_restore_fast;
    cs_restore_full = d after.cs_restore_full before.cs_restore_full;
    cs_restore_pages = d after.cs_restore_pages before.cs_restore_pages;
    cs_decode_hits = d after.cs_decode_hits before.cs_decode_hits;
    cs_decode_misses = d after.cs_decode_misses before.cs_decode_misses;
    cs_decode_warm_hits = d after.cs_decode_warm_hits before.cs_decode_warm_hits;
    cs_prewarmed = d after.cs_prewarmed before.cs_prewarmed;
    cs_sb_hits = d after.cs_sb_hits before.cs_sb_hits;
    cs_sb_blocks = d after.cs_sb_blocks before.cs_sb_blocks;
    cs_sb_insns = d after.cs_sb_insns before.cs_sb_insns;
    cs_sb_fallbacks = d after.cs_sb_fallbacks before.cs_sb_fallbacks;
    cs_march_steps = d after.cs_march_steps before.cs_march_steps;
  }

let fields t =
  [
    ("tlb_hits", t.cs_tlb_hits);
    ("tlb_misses", t.cs_tlb_misses);
    ("restore_fast", t.cs_restore_fast);
    ("restore_full", t.cs_restore_full);
    ("restore_pages_blitted", t.cs_restore_pages);
    ("decode_hits", t.cs_decode_hits);
    ("decode_misses", t.cs_decode_misses);
    ("decode_warm_hits", t.cs_decode_warm_hits);
    ("prewarmed", t.cs_prewarmed);
    ("sb_hits", t.cs_sb_hits);
    ("sb_blocks", t.cs_sb_blocks);
    ("sb_insns_retired", t.cs_sb_insns);
    ("sb_fallbacks", t.cs_sb_fallbacks);
    ("march_steps", t.cs_march_steps);
  ]

let ratio hits misses =
  let total = hits + misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let tlb_hit_rate t = ratio t.cs_tlb_hits t.cs_tlb_misses
let decode_hit_rate t = ratio t.cs_decode_hits t.cs_decode_misses

(* A superblock lookup either enters a cached block (hit) or builds one;
   block builds are the miss events of this cache. *)
let sb_hit_rate t = ratio t.cs_sb_hits t.cs_sb_blocks

(* Fraction of decode-cache hits served by entries installed by the
   post-boot pre-warm pass rather than discovered cold during trials. *)
let decode_warm_rate t =
  if t.cs_decode_hits = 0 then 0.0
  else float_of_int t.cs_decode_warm_hits /. float_of_int t.cs_decode_hits

let render ppf t =
  Format.fprintf ppf
    "tlb %d/%d (%.1f%%)  decode %d/%d (%.1f%%, %.1f%% warm)  sb %d blk / %d insn (%.1f%% hit, %d fb)  march %d  restores %d fast / %d full (%d pages)"
    t.cs_tlb_hits
    (t.cs_tlb_hits + t.cs_tlb_misses)
    (100.0 *. tlb_hit_rate t)
    t.cs_decode_hits
    (t.cs_decode_hits + t.cs_decode_misses)
    (100.0 *. decode_hit_rate t)
    (100.0 *. decode_warm_rate t)
    t.cs_sb_blocks t.cs_sb_insns
    (100.0 *. sb_hit_rate t)
    t.cs_sb_fallbacks t.cs_march_steps
    t.cs_restore_fast t.cs_restore_full t.cs_restore_pages
