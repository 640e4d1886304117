(* Unit and property tests for the ferrite_machine foundation library. *)

open Ferrite_machine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.bits32 a) (Rng.bits32 b)
  done

let test_rng_split_independence () =
  (* Drawing more from the parent after a split must not perturb the child. *)
  let a = Rng.create ~seed:7L in
  let c = Rng.split a in
  let v1 = Rng.bits32 c in
  let a' = Rng.create ~seed:7L in
  let c' = Rng.split a' in
  let _ = Rng.bits32 a' in
  let _ = Rng.bits32 a' in
  check_int "split stream stable" v1 (Rng.bits32 c')

let test_rng_copy () =
  let a = Rng.create ~seed:3L in
  let _ = Rng.bits32 a in
  let b = Rng.copy a in
  check_int "copy continues identically" (Rng.bits32 a) (Rng.bits32 b)

let test_rng_derive () =
  (* counter-style derivation: pure in (seed, index), distinct across indices *)
  check_bool "deterministic" true
    (Rng.derive ~seed:11L ~index:4 = Rng.derive ~seed:11L ~index:4);
  check_bool "index-sensitive" true
    (Rng.derive ~seed:11L ~index:4 <> Rng.derive ~seed:11L ~index:5);
  check_bool "seed-sensitive" true
    (Rng.derive ~seed:11L ~index:4 <> Rng.derive ~seed:12L ~index:4);
  let a = Rng.create_derived ~seed:11L ~index:4 in
  let b = Rng.create ~seed:(Rng.derive ~seed:11L ~index:4) in
  check_int "create_derived = create of derive" (Rng.bits32 a) (Rng.bits32 b);
  match Rng.derive ~seed:1L ~index:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative index must be rejected"

let test_rng_int_range () =
  let t = Rng.create ~seed:1L in
  for _ = 1 to 10_000 do
    let v = Rng.int t 7 in
    check_bool "in range" true (v >= 0 && v < 7)
  done

let test_rng_int_uniformish () =
  let t = Rng.create ~seed:5L in
  let counts = Array.make 4 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let v = Rng.int t 4 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c -> check_bool "roughly uniform" true (abs (c - (n / 4)) < n / 20))
    counts

let test_rng_pick_weighted () =
  let t = Rng.create ~seed:9L in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.pick_weighted t [| ("a", 9.0); ("b", 1.0) |] = "a" then incr hits
  done;
  check_bool "weight respected" true (!hits > 8_500 && !hits < 9_500)

let test_rng_shuffle_permutation () =
  let t = Rng.create ~seed:11L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* ---------- Word ---------- *)

let test_word_mask () =
  check_int "mask wraps" 0 (Word.add 0xFFFFFFFF 1);
  check_int "sub wraps" 0xFFFFFFFF (Word.sub 0 1);
  check_int "mul wraps" (Word.mask (0x10000 * 0x10000)) 0

let test_word_sign () =
  check_int "sext8 neg" 0xFFFFFF80 (Word.sign_extend8 0x80);
  check_int "sext8 pos" 0x7F (Word.sign_extend8 0x7F);
  check_int "sext16 neg" 0xFFFF8000 (Word.sign_extend16 0x8000);
  check_int "signed" (-1) (Word.signed 0xFFFFFFFF)

let test_word_shifts () =
  check_int "shl" 0x80000000 (Word.shl 1 31);
  check_int "shl masks count" 2 (Word.shl 1 33);
  check_int "shr" 1 (Word.shr 0x80000000 31);
  check_int "sar sign" 0xFFFFFFFF (Word.sar 0x80000000 31);
  check_int "rotl" 1 (Word.rotl 0x80000000 1)

let test_word_bits () =
  check_bool "bit" true (Word.bit 0x8 3);
  check_int "set" 0x8 (Word.set_bit 0 3 true);
  check_int "clear" 0 (Word.set_bit 0x8 3 false);
  check_int "flip" 0x8 (Word.flip_bit 0 3);
  check_int "popcount" 32 (Word.popcount 0xFFFFFFFF)

let prop_flip_involution =
  QCheck.Test.make ~name:"flip_bit is an involution" ~count:500
    QCheck.(pair (int_bound 0xFFFFFF) (int_bound 31))
    (fun (x, i) -> Word.flip_bit (Word.flip_bit x i) i = Word.mask x)

let prop_sar_matches_signed =
  QCheck.Test.make ~name:"sar matches signed shift" ~count:500
    QCheck.(pair (int_bound 0xFFFFFF) (int_bound 31))
    (fun (x, k) -> Word.sar x k = Word.mask (Word.signed (Word.mask x) asr k))

(* ---------- Memory ---------- *)

let mk () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~size:0x2000 ~perm:Memory.perm_rw;
  m

let test_memory_rw () =
  let m = mk () in
  Memory.store32_le m 0x1000 0xDEADBEEF;
  check_int "le32" 0xDEADBEEF (Memory.load32_le m 0x1000);
  check_int "byte order le" 0xEF (Memory.load8 m 0x1000);
  Memory.store32_be m 0x1100 0xDEADBEEF;
  check_int "be32" 0xDEADBEEF (Memory.load32_be m 0x1100);
  check_int "byte order be" 0xDE (Memory.load8 m 0x1100)

let test_memory_cross_page () =
  let m = mk () in
  Memory.store32_le m 0x1FFE 0x11223344;
  check_int "crosses page boundary" 0x11223344 (Memory.load32_le m 0x1FFE)

let test_memory_unmapped () =
  let m = mk () in
  (match Memory.load8 m 0x9000 with
  | exception Memory.Fault { kind = Memory.Unmapped; access = Memory.Read; addr } ->
    check_int "fault addr" 0x9000 addr
  | _ -> Alcotest.fail "expected unmapped fault")

let test_memory_protection () =
  let m = mk () in
  Memory.set_perm m ~addr:0x1000 ~size:0x1000 ~perm:Memory.perm_ro;
  (match Memory.store8 m 0x1001 1 with
  | exception Memory.Fault { kind = Memory.Protection; access = Memory.Write; _ } -> ()
  | _ -> Alcotest.fail "expected protection fault");
  check_int "read still fine" 0 (Memory.load8 m 0x1001)

let test_memory_execute () =
  let m = mk () in
  (match Memory.fetch8 m 0x1000 with
  | exception Memory.Fault { kind = Memory.Protection; access = Memory.Execute; _ } -> ()
  | _ -> Alcotest.fail "rw page must not be executable");
  Memory.set_perm m ~addr:0x1000 ~size:0x1000 ~perm:Memory.perm_rx;
  check_int "exec ok" 0 (Memory.fetch8 m 0x1000)

let test_memory_flip_bit () =
  let m = mk () in
  Memory.poke8 m 0x1234 0b1010;
  Memory.flip_bit m ~addr:0x1234 ~bit:0;
  check_int "flip set" 0b1011 (Memory.peek8 m 0x1234);
  Memory.flip_bit m ~addr:0x1234 ~bit:0;
  check_int "flip restore" 0b1010 (Memory.peek8 m 0x1234)

let test_memory_peek_bypasses_protection () =
  let m = mk () in
  Memory.set_perm m ~addr:0x1000 ~size:0x1000 ~perm:Memory.perm_ro;
  Memory.poke8 m 0x1000 0x5A;
  check_int "poke bypasses ro" 0x5A (Memory.peek8 m 0x1000)

let test_memory_remap_preserves () =
  let m = mk () in
  Memory.store8 m 0x1000 0x7;
  Memory.map m ~addr:0x1000 ~size:16 ~perm:Memory.perm_ro;
  check_int "contents preserved" 0x7 (Memory.load8 m 0x1000)

let test_memory_auto_map () =
  let m = mk () in
  Memory.set_auto_map m ~lo:0x100000 ~hi:0x200000 ~perm:Memory.perm_rw;
  (* inside the window: materialises zero-filled *)
  check_int "demand-mapped reads zero" 0 (Memory.load8 m 0x123456);
  Memory.store32_le m 0x150000 42;
  check_int "writes stick" 42 (Memory.load32_le m 0x150000);
  (* outside the window: still faults *)
  (match Memory.load8 m 0x300000 with
  | exception Memory.Fault { kind = Memory.Unmapped; _ } -> ()
  | _ -> Alcotest.fail "outside the window must fault");
  (* peek does not auto-map *)
  (match Memory.peek8 m 0x180000 with
  | exception Memory.Fault _ -> ()
  | _ -> Alcotest.fail "peek must not demand-map")

let test_memory_auto_map_perm () =
  let m = mk () in
  Memory.set_auto_map m ~lo:0x100000 ~hi:0x200000 ~perm:Memory.perm_ro;
  check_int "read ok" 0 (Memory.load8 m 0x100000);
  (match Memory.store8 m 0x100004 1 with
  | exception Memory.Fault { kind = Memory.Protection; _ } -> ()
  | _ -> Alcotest.fail "window perm must be honoured")

let test_memory_unmap () =
  let m = mk () in
  Memory.unmap m ~addr:0x1000 ~size:0x2000;
  check_bool "unmapped" false (Memory.is_mapped m 0x1000);
  check_int "page count" 0 (Memory.snapshot_page_count m)

let test_memory_snapshot_restore () =
  let m = mk () in
  Memory.set_auto_map m ~lo:0x100000 ~hi:0x200000 ~perm:Memory.perm_rw;
  Memory.store32_le m 0x1000 0xABCD;
  let s = Memory.snapshot m in
  (* mutate everything the snapshot covers: contents, perms, page set, window *)
  Memory.store32_le m 0x1000 0xFFFF;
  Memory.set_perm m ~addr:0x1000 ~size:16 ~perm:Memory.perm_ro;
  Memory.map m ~addr:0x5000 ~size:32 ~perm:Memory.perm_rw;
  ignore (Memory.load8 m 0x150000);  (* demand-map a window page *)
  Memory.set_auto_map m ~lo:0x300000 ~hi:0x400000 ~perm:Memory.perm_ro;
  Memory.restore m s;
  check_int "contents rewound" 0xABCD (Memory.load32_le m 0x1000);
  Memory.store8 m 0x1000 1;  (* perm_rw again: must not raise *)
  check_bool "new page unmapped" false (Memory.is_mapped m 0x5000);
  check_bool "demand-mapped page unmapped" false (Memory.is_mapped m 0x150000);
  check_int "window restored" 0 (Memory.load8 m 0x123456);
  (* snapshot must not alias live pages *)
  Memory.store8 m 0x1004 0x77;
  Memory.restore m s;
  check_int "snapshot unaliased" 0 (Memory.load8 m 0x1004)

let test_memory_set_perm_partial_range () =
  (* regression: a range that runs off the mapped region must leave every
     page's permissions untouched, not downgrade the mapped prefix first *)
  let m = mk () in
  (match Memory.set_perm m ~addr:0x1000 ~size:0x3000 ~perm:Memory.perm_ro with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "set_perm over an unmapped tail must be rejected");
  Memory.store8 m 0x1000 1;  (* first page still rw *)
  Memory.store8 m 0x2FFF 2;  (* last mapped page still rw *)
  check_int "writes landed" 1 (Memory.load8 m 0x1000)

let test_memory_dirty_restore () =
  (* back-to-back restores of the same snapshot take the dirty-page path;
     the rewound state must be indistinguishable from a full restore *)
  let m = mk () in
  Memory.set_auto_map m ~lo:0x100000 ~hi:0x200000 ~perm:Memory.perm_rw;
  Memory.store32_le m 0x1000 0xABCD;
  let s = Memory.snapshot m in
  Memory.restore m s;  (* arms the dirty tracker for snapshot s *)
  let before = Memory.cache_stats m in
  Memory.store32_le m 0x1000 0xFFFF;
  Memory.store8 m 0x2400 9;
  ignore (Memory.load8 m 0x150000);  (* demand-map inside the window *)
  Memory.map m ~addr:0x7000 ~size:16 ~perm:Memory.perm_rw;
  Memory.restore m s;
  let after = Memory.cache_stats m in
  check_bool "dirty fast path taken" true
    Ferrite_machine.Cache_stats.(after.cs_restore_fast > before.cs_restore_fast);
  check_int "contents rewound" 0xABCD (Memory.load32_le m 0x1000);
  check_int "second dirty page rewound" 0 (Memory.load8 m 0x2400);
  check_bool "demand-mapped page dropped" false (Memory.is_mapped m 0x150000);
  check_bool "new page dropped" false (Memory.is_mapped m 0x7000);
  (* a restore from a different snapshot must fall back to the full walk *)
  let s2 = Memory.snapshot m in
  Memory.store8 m 0x1000 3;
  Memory.restore m s2;
  Memory.store8 m 0x1000 4;
  Memory.restore m s;
  check_int "cross-snapshot restore is full and correct" 0xABCD
    (Memory.load32_le m 0x1000)

let test_memory_fast_paths_off () =
  (* with fast paths disabled the same sequence must behave identically and
     report zero TLB/fast-restore activity *)
  Memory.set_fast_paths_default false;
  Fun.protect ~finally:(fun () -> Memory.set_fast_paths_default true) (fun () ->
      let m = mk () in
      check_bool "fast paths off" false (Memory.fast_paths m);
      Memory.store32_le m 0x1000 0xABCD;
      let s = Memory.snapshot m in
      Memory.restore m s;
      Memory.store32_le m 0x1000 0xFFFF;
      Memory.restore m s;
      check_int "restore still exact" 0xABCD (Memory.load32_le m 0x1000);
      let st = Memory.cache_stats m in
      check_int "no tlb hits" 0 st.Ferrite_machine.Cache_stats.cs_tlb_hits;
      check_int "no fast restores" 0 st.Ferrite_machine.Cache_stats.cs_restore_fast)

let test_memory_tlb_invalidation () =
  let m = mk () in
  (* warm the read TLB on the page, then change its permissions: the next
     write must fault, i.e. the stale write-class entry cannot be used *)
  ignore (Memory.load8 m 0x1000);
  Memory.store8 m 0x1000 1;
  Memory.set_perm m ~addr:0x1000 ~size:0x1000 ~perm:Memory.perm_ro;
  (match Memory.store8 m 0x1000 2 with
  | exception Memory.Fault { kind = Memory.Protection; _ } -> ()
  | _ -> Alcotest.fail "TLB must be flushed on set_perm");
  (* and after unmap the page must be gone, not served from the TLB *)
  ignore (Memory.load8 m 0x1000);
  Memory.unmap m ~addr:0x1000 ~size:0x1000;
  (match Memory.load8 m 0x1000 with
  | exception Memory.Fault { kind = Memory.Unmapped; _ } -> ()
  | _ -> Alcotest.fail "TLB must be flushed on unmap")

let prop_store_load_roundtrip =
  QCheck.Test.make ~name:"store32/load32 round trip" ~count:300
    QCheck.(pair (int_bound 0x1FF0) (int_bound 0xFFFFFF))
    (fun (off, v) ->
      let m = mk () in
      let addr = 0x1000 + off in
      Memory.store32_le m addr v;
      Memory.load32_le m addr = v)

(* ---------- Debug_regs ---------- *)

let test_dr_exec () =
  let d = Debug_regs.create () in
  Debug_regs.set_instruction_bp d 0xC0100000;
  check_bool "hit" true (Debug_regs.check_exec d 0xC0100000);
  check_bool "miss" false (Debug_regs.check_exec d 0xC0100001);
  Debug_regs.clear_all d;
  check_bool "cleared" false (Debug_regs.check_exec d 0xC0100000)

let test_dr_data_overlap () =
  let d = Debug_regs.create () in
  Debug_regs.set_data_bp d ~addr:0x2000 ~len:4;
  (match Debug_regs.check_data d ~addr:0x2002 ~len:2 ~is_write:true with
  | Some { addr; is_write } ->
    check_int "watch addr" 0x2000 addr;
    check_bool "write" true is_write
  | None -> Alcotest.fail "expected overlap hit");
  check_bool "disjoint miss" true (Debug_regs.check_data d ~addr:0x2004 ~len:4 ~is_write:false = None)

let test_dr_slots () =
  let d = Debug_regs.create () in
  for i = 1 to 4 do
    Debug_regs.set_instruction_bp d i
  done;
  (match Debug_regs.set_instruction_bp d 5 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected slot exhaustion")

(* ---------- Counters / Layout ---------- *)

let test_counters () =
  let c = Counters.create () in
  Counters.retire c ~cost:3;
  Counters.retire c ~cost:2;
  Counters.idle c 100;
  check_int "cycles" 105 c.Counters.cycles;
  check_int "instructions" 2 c.Counters.instructions;
  check_int "since" 105 (Counters.since c ~mark:0)

(* --- page table against a model -------------------------------------------

   Random map/unmap/set_perm/poke/peek/load/store/swap/snapshot/restore
   sequences run against an association list of pages written here. The
   pages sit at both ends of the 20-bit index space and on both sides of a
   radix leaf boundary; the offsets sit at both page ends, so word accesses
   cross pages (and wrap from the last page to page 0). Restores hit both
   the dirty-page path (the same snapshot again) and the full one. *)

module Model = struct
  type page = Memory.perm * string

  type t = {
    pages : (int * page) list;  (** page index -> permissions and bytes *)
    lo : int;
    hi : int;
    aperm : Memory.perm;
  }

  type outcome =
    | Value of int
    | Fault of int * Memory.access * Memory.fault_kind
    | Invalid

  let empty = { pages = []; lo = 0; hi = 0; aperm = Memory.perm_rw }
  let index addr = (addr land 0xFFFFFFFF) lsr 12
  let zero = String.make Memory.page_size '\000'
  let set m idx pg = { m with pages = (idx, pg) :: List.remove_assoc idx m.pages }

  let allowed (perm : Memory.perm) = function
    | Memory.Read -> perm.Memory.readable
    | Memory.Write -> perm.Memory.writable
    | Memory.Execute -> perm.Memory.executable

  (* the page a CPU access lands on, demand-mapping inside the window *)
  let page_for m addr access =
    match List.assoc_opt (index addr) m.pages with
    | Some pg -> Ok (m, pg)
    | None ->
      let a = addr land 0xFFFFFFFF in
      if a >= m.lo && a < m.hi then
        let pg = (m.aperm, zero) in
        Ok (set m (index addr) pg, pg)
      else Error (m, Fault (addr, access, Memory.Unmapped))

  let byte data addr = Char.code data.[addr land 0xFFF]

  let with_byte data addr v =
    let b = Bytes.of_string data in
    Bytes.set b (addr land 0xFFF) (Char.chr (v land 0xFF));
    Bytes.to_string b

  let load8 m addr =
    match page_for m addr Memory.Read with
    | Error e -> e
    | Ok (m, (perm, data)) ->
      if allowed perm Memory.Read then (m, Value (byte data addr))
      else (m, Fault (addr, Memory.Read, Memory.Protection))

  let store8 m addr v =
    match page_for m addr Memory.Write with
    | Error e -> e
    | Ok (m, (perm, data)) ->
      if allowed perm Memory.Write then (set m (index addr) (perm, with_byte data addr v), Value 0)
      else (m, Fault (addr, Memory.Write, Memory.Protection))

  (* word accesses go byte by byte, lowest address first, and stop at the
     first fault; what the earlier bytes did stays done *)
  let load32_le m addr =
    let rec go m i acc =
      if i = 4 then (m, Value acc)
      else
        match load8 m (addr + i) with
        | m, Value b -> go m (i + 1) (acc lor (b lsl (8 * i)))
        | r -> r
    in
    go m 0 0

  let store32_le m addr v =
    let rec go m i =
      if i = 4 then (m, Value 0)
      else
        match store8 m (addr + i) (v lsr (8 * i)) with
        | m, Value _ -> go m (i + 1)
        | r -> r
    in
    go m 0

  let peek8 m addr =
    match List.assoc_opt (index addr) m.pages with
    | Some (_, data) -> (m, Value (byte data addr))
    | None -> (m, Fault (addr, Memory.Read, Memory.Unmapped))

  let poke8 m addr v =
    match List.assoc_opt (index addr) m.pages with
    | Some (perm, data) -> (set m (index addr) (perm, with_byte data addr v), Value 0)
    | None -> (m, Fault (addr, Memory.Read, Memory.Unmapped))
end

let model_pages = [| 0x00000; 0x00001; 0x003FF; 0x00400; 0xC0000; 0xC0001; 0xFFFFF |]
let model_offsets = [| 0; 1; 2; 3; 100; 4092; 4093; 4094; 4095 |]
let model_perms =
  [| Memory.perm_rw; Memory.perm_ro; Memory.perm_rx; Memory.perm_rwx;
     { Memory.readable = false; writable = false; executable = false } |]

type mem_op =
  | Map of int * int
  | Unmap of int
  | Set_perm of int * int
  | Auto of int * int
  | Poke of int * int * int
  | Peek of int * int
  | Load8 of int * int
  | Store8 of int * int * int
  | Load32 of int * int
  | Store32 of int * int * int
  | Swap of int * int
  | Snapshot
  | Restore of int

let mem_op_gen =
  let open QCheck.Gen in
  let page = int_bound (Array.length model_pages - 1)
  and off = int_bound (Array.length model_offsets - 1)
  and perm = int_bound (Array.length model_perms - 1) in
  frequency
    [
      (3, map2 (fun p k -> Map (p, k)) page perm);
      (1, map (fun p -> Unmap p) page);
      (2, map2 (fun p k -> Set_perm (p, k)) page perm);
      (1, map2 (fun p k -> Auto (p, k)) page perm);
      (2, map3 (fun p o v -> Poke (p, o, v)) page off (int_bound 255));
      (1, map2 (fun p o -> Peek (p, o)) page off);
      (2, map2 (fun p o -> Load8 (p, o)) page off);
      (3, map3 (fun p o v -> Store8 (p, o, v)) page off (int_bound 255));
      (2, map2 (fun p o -> Load32 (p, o)) page off);
      (3, map3 (fun p o v -> Store32 (p, o, v)) page off (int_bound 0xFFFFFFF));
      (1, map2 (fun a b -> Swap (a, b)) page page);
      (2, return Snapshot);
      (3, map (fun i -> Restore i) (int_bound 3));
    ]

let model_addr p o = (model_pages.(p) lsl 12) + model_offsets.(o)

(* One op on both sides; [snaps] pairs each real snapshot with the model
   state it captured, newest first. *)
let apply_mem_op mem m snaps op =
  let real f =
    match f () with
    | v -> Model.Value v
    | exception Memory.Fault { addr; access; kind } -> Model.Fault (addr, access, kind)
    | exception Invalid_argument _ -> Model.Invalid
  in
  let page p = model_pages.(p) lsl 12 in
  match op with
  | Map (p, k) ->
    Memory.map mem ~addr:(page p) ~size:Memory.page_size ~perm:model_perms.(k);
    let data = Option.fold ~none:Model.zero ~some:snd (List.assoc_opt model_pages.(p) m.Model.pages) in
    (Model.set m model_pages.(p) (model_perms.(k), data), true)
  | Unmap p ->
    Memory.unmap mem ~addr:(page p) ~size:Memory.page_size;
    ({ m with Model.pages = List.remove_assoc model_pages.(p) m.Model.pages }, true)
  | Set_perm (p, k) -> (
    let r =
      real (fun () ->
          Memory.set_perm mem ~addr:(page p) ~size:Memory.page_size ~perm:model_perms.(k);
          0)
    in
    match List.assoc_opt model_pages.(p) m.Model.pages with
    | Some (_, data) -> (Model.set m model_pages.(p) (model_perms.(k), data), r = Model.Value 0)
    | None -> (m, r = Model.Invalid))
  | Auto (p, k) ->
    (* a two-page window starting at page [p] *)
    let lo = page p and hi = page p + (2 * Memory.page_size) in
    Memory.set_auto_map mem ~lo ~hi ~perm:model_perms.(k);
    ({ m with Model.lo; hi; aperm = model_perms.(k) }, true)
  | Poke (p, o, v) ->
    let a = model_addr p o in
    let m, want = Model.poke8 m a v in
    (m, real (fun () -> Memory.poke8 mem a v; 0) = want)
  | Peek (p, o) ->
    let a = model_addr p o in
    let m, want = Model.peek8 m a in
    (m, real (fun () -> Memory.peek8 mem a) = want)
  | Load8 (p, o) ->
    let a = model_addr p o in
    let m, want = Model.load8 m a in
    (m, real (fun () -> Memory.load8 mem a) = want)
  | Store8 (p, o, v) ->
    let a = model_addr p o in
    let m, want = Model.store8 m a v in
    (m, real (fun () -> Memory.store8 mem a v; 0) = want)
  | Load32 (p, o) ->
    let a = model_addr p o in
    let m, want = Model.load32_le m a in
    (m, real (fun () -> Memory.load32_le mem a) = want)
  | Store32 (p, o, v) ->
    let a = model_addr p o in
    let m, want = Model.store32_le m a v in
    (m, real (fun () -> Memory.store32_le mem a v; 0) = want)
  | Swap (a, b) -> (
    let r = real (fun () -> Memory.swap_page_contents mem (page a) (page b); 0) in
    let ia = model_pages.(a) and ib = model_pages.(b) in
    match (List.assoc_opt ia m.Model.pages, List.assoc_opt ib m.Model.pages) with
    | Some (pa, da), Some (pb, db) when ia <> ib ->
      (Model.set (Model.set m ia (pa, db)) ib (pb, da), r = Model.Value 0)
    | _ -> (m, r = Model.Invalid))
  | Snapshot ->
    snaps := (Memory.snapshot mem, m) :: !snaps;
    (m, true)
  | Restore i -> (
    match !snaps with
    | [] -> (m, true)
    | l ->
      let s, saved = List.nth l (i mod List.length l) in
      Memory.restore mem s;
      (saved, true))

(* Every page's mapping, permissions and sampled bytes, and the page count *)
let mem_agrees mem (m : Model.t) =
  Memory.snapshot_page_count mem = List.length m.Model.pages
  && Array.for_all
       (fun idx ->
         match (Memory.page_at_opt mem (idx lsl 12), List.assoc_opt idx m.Model.pages) with
         | None, None -> true
         | Some pg, Some (perm, data) ->
           Memory.page_perm pg = perm
           && Array.for_all
                (fun o ->
                  List.for_all
                    (fun d ->
                      let off = (o + d) land 0xFFF in
                      Memory.peek8 mem ((idx lsl 12) + off) = Char.code data.[off])
                    [ 0; 1; 2; 3 ])
                model_offsets
         | _ -> false)
       model_pages

let prop_memory_matches_model =
  QCheck.Test.make ~name:"page table matches an association-list model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 80) mem_op_gen))
    (fun ops ->
      let mem = Memory.create () in
      let snaps = ref [] in
      let rec go m = function
        | [] -> true
        | op :: rest ->
          let m, same = apply_mem_op mem m snaps op in
          same && mem_agrees mem m && go m rest
      in
      go Model.empty ops)

let test_layout () =
  check_bool "kernel addr" true (Layout.is_kernel 0xC0100000);
  check_bool "user addr" false (Layout.is_kernel 0x08048000);
  check_bool "null" true (Layout.is_null_deref 0x8);
  check_bool "not null" false (Layout.is_null_deref 0x2000);
  check_int "stack size" 8192 Layout.kernel_stack_size

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ferrite_machine"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "derive" `Quick test_rng_derive;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int uniform-ish" `Quick test_rng_int_uniformish;
          Alcotest.test_case "pick_weighted" `Quick test_rng_pick_weighted;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
        ] );
      ( "word",
        [
          Alcotest.test_case "mask" `Quick test_word_mask;
          Alcotest.test_case "sign" `Quick test_word_sign;
          Alcotest.test_case "shifts" `Quick test_word_shifts;
          Alcotest.test_case "bits" `Quick test_word_bits;
          q prop_flip_involution;
          q prop_sar_matches_signed;
        ] );
      ( "memory",
        [
          Alcotest.test_case "rw le/be" `Quick test_memory_rw;
          Alcotest.test_case "cross page" `Quick test_memory_cross_page;
          Alcotest.test_case "unmapped fault" `Quick test_memory_unmapped;
          Alcotest.test_case "protection fault" `Quick test_memory_protection;
          Alcotest.test_case "execute permission" `Quick test_memory_execute;
          Alcotest.test_case "flip bit" `Quick test_memory_flip_bit;
          Alcotest.test_case "peek/poke bypass" `Quick test_memory_peek_bypasses_protection;
          Alcotest.test_case "remap preserves" `Quick test_memory_remap_preserves;
          Alcotest.test_case "unmap" `Quick test_memory_unmap;
          Alcotest.test_case "auto-map window" `Quick test_memory_auto_map;
          Alcotest.test_case "auto-map perms" `Quick test_memory_auto_map_perm;
          Alcotest.test_case "snapshot/restore" `Quick test_memory_snapshot_restore;
          Alcotest.test_case "set_perm partial range" `Quick test_memory_set_perm_partial_range;
          Alcotest.test_case "dirty restore" `Quick test_memory_dirty_restore;
          Alcotest.test_case "fast paths off" `Quick test_memory_fast_paths_off;
          Alcotest.test_case "tlb invalidation" `Quick test_memory_tlb_invalidation;
          q prop_store_load_roundtrip;
          q prop_memory_matches_model;
        ] );
      ( "debug_regs",
        [
          Alcotest.test_case "exec bp" `Quick test_dr_exec;
          Alcotest.test_case "data overlap" `Quick test_dr_data_overlap;
          Alcotest.test_case "slot limit" `Quick test_dr_slots;
        ] );
      ( "counters+layout",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "layout" `Quick test_layout;
        ] );
    ]
