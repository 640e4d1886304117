(* The cache hierarchy (software TLB, dirty-page restore, decode caches) must
   be a pure acceleration: invisible in records, telemetry and event traces.
   Unit tests pin the eviction contract — any write to an executable page,
   including an injected bit flip, must evict the stale decode entry — and a
   differential property replays whole campaigns with the fast paths disabled
   ([Memory.set_fast_paths_default false]) to check bit-identical results. *)

open Ferrite_machine
module Campaign = Ferrite_injection.Campaign
module Executor = Ferrite_injection.Executor
module Engine = Ferrite_injection.Engine
module Target = Ferrite_injection.Target
module Image = Ferrite_kir.Image

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- decode-cache eviction ----------------------------------------------- *)

let code_base = 0xC0100000
let stop_addr = 0xFFFF0000

let test_cisc_poke_evicts () =
  let module Cpu = Ferrite_cisc.Cpu in
  let mem = Memory.create () in
  Memory.map mem ~addr:code_base ~size:0x1000 ~perm:Memory.perm_rx;
  (* B8 imm32: mov eax, 0x11 *)
  Memory.poke8 mem code_base 0xB8;
  Memory.poke32_le mem (code_base + 1) 0x11;
  let cpu = Cpu.create ~mem ~stop_addr in
  cpu.Cpu.eip <- code_base;
  ignore (Cpu.step cpu);
  check_int "first decode" 0x11 cpu.Cpu.regs.(Cpu.eax);
  cpu.Cpu.eip <- code_base;
  ignore (Cpu.step cpu);
  let hits = (Cpu.cache_stats cpu).Cache_stats.cs_decode_hits in
  check_bool "re-decode of an untouched page hits the cache" true (hits > 0);
  (* overwrite the immediate in place: the cached decode is now stale *)
  Memory.poke8 mem (code_base + 1) 0x22;
  cpu.Cpu.eip <- code_base;
  ignore (Cpu.step cpu);
  check_int "poked byte is decoded, not the cached copy" 0x22
    cpu.Cpu.regs.(Cpu.eax)

let test_risc_flip_evicts () =
  let module Cpu = Ferrite_risc.Cpu in
  let mem = Memory.create () in
  Memory.map mem ~addr:code_base ~size:0x1000 ~perm:Memory.perm_rx;
  (* addi r3, r0, 5 (li r3, 5) *)
  Memory.poke32_be mem code_base 0x38600005;
  let cpu = Cpu.create ~mem ~stop_addr in
  cpu.Cpu.pc <- code_base;
  ignore (Cpu.step cpu);
  check_int "li executed" 5 cpu.Cpu.gpr.(3);
  cpu.Cpu.pc <- code_base;
  ignore (Cpu.step cpu);
  let hits = (Cpu.cache_stats cpu).Cache_stats.cs_decode_hits in
  check_bool "re-decode of an untouched page hits the cache" true (hits > 0);
  (* an injected code error: flip bit 1 of the word (LSB lives at the
     highest byte address on the big-endian fetch path) *)
  Memory.flip_bit mem ~addr:(code_base + 3) ~bit:1;
  cpu.Cpu.pc <- code_base;
  ignore (Cpu.step cpu);
  check_int "flipped word is decoded, not the cached copy" 7 cpu.Cpu.gpr.(3)

(* Stores issued by the CPU itself (self-modifying code, or fault-corrupted
   code overwriting its neighbours) must evict cached decodes just like
   external pokes: the store path and the injector share the same memory
   write entry points. *)

let test_cisc_cpu_store_evicts () =
  let module Cpu = Ferrite_cisc.Cpu in
  let mem = Memory.create () in
  Memory.map mem ~addr:code_base ~size:0x1000 ~perm:Memory.perm_rwx;
  (* B8 imm32: mov eax, 0x11 *)
  Memory.poke8 mem code_base 0xB8;
  Memory.poke32_le mem (code_base + 1) 0x11;
  (* C7 05 disp32 imm32: mov dword [code_base+1], 0x22 — rewrites the
     immediate of the instruction above *)
  Memory.poke8 mem (code_base + 5) 0xC7;
  Memory.poke8 mem (code_base + 6) 0x05;
  Memory.poke32_le mem (code_base + 7) (code_base + 1);
  Memory.poke32_le mem (code_base + 11) 0x22;
  let cpu = Cpu.create ~mem ~stop_addr in
  cpu.Cpu.eip <- code_base;
  ignore (Cpu.step cpu);
  check_int "first decode" 0x11 cpu.Cpu.regs.(Cpu.eax);
  ignore (Cpu.step cpu) (* the store: self-modifying write via the CPU *);
  cpu.Cpu.eip <- code_base;
  ignore (Cpu.step cpu);
  check_int "CPU store invalidated the cached decode" 0x22 cpu.Cpu.regs.(Cpu.eax)

let test_risc_cpu_store_evicts () =
  let module Cpu = Ferrite_risc.Cpu in
  let mem = Memory.create () in
  Memory.map mem ~addr:code_base ~size:0x1000 ~perm:Memory.perm_rwx;
  (* addi r3, r0, 5 (li r3, 5) *)
  Memory.poke32_be mem code_base 0x38600005;
  (* stw r5, 0(r6) — will overwrite the li above with li r3, 7 *)
  Memory.poke32_be mem (code_base + 4) 0x90A60000;
  let cpu = Cpu.create ~mem ~stop_addr in
  cpu.Cpu.gpr.(5) <- 0x38600007;
  cpu.Cpu.gpr.(6) <- code_base;
  cpu.Cpu.pc <- code_base;
  ignore (Cpu.step cpu);
  check_int "li executed" 5 cpu.Cpu.gpr.(3);
  ignore (Cpu.step cpu) (* the store *);
  cpu.Cpu.pc <- code_base;
  ignore (Cpu.step cpu);
  check_int "CPU store invalidated the cached decode" 7 cpu.Cpu.gpr.(3)

(* --- decode-cache refinements, on both ISAs ------------------------------- *)

(* One CPU as these tests drive it: [load k addr] writes "load the
   immediate [k] into the first register" at [addr], [width] bytes long.
   [outcome] steps once and names the result; [poison] breaks address
   translation, after which a fetch at [pc] must end as [poisoned_fetch pc]. *)
type machine = {
  name : string;
  width : int;
  load : int -> int -> unit;
  reg : unit -> int;
  set_pc : int -> unit;
  step : unit -> unit;
  outcome : unit -> string;
  run1 : unit -> unit;
  stats : unit -> Cache_stats.t;
  block_len : int -> int;
  poison : unit -> unit;
  poisoned_fetch : int -> string;
}

let describe to_string = function
  | Step.Retired -> "retired"
  | Step.Halted -> "halted"
  | Step.Hit_ibp -> "ibp"
  | Step.Hit_dbp _ -> "dbp"
  | Step.Stopped -> "stopped"
  | Step.Faulted e -> "faulted: " ^ to_string e

let risc mem =
  let module Cpu = Ferrite_risc.Cpu in
  let cpu = Cpu.create ~mem ~stop_addr in
  {
    name = "risc";
    width = 4;
    load = (fun k addr -> Memory.poke32_be mem addr (0x38600000 lor k) (* li r3, k *));
    reg = (fun () -> cpu.Cpu.gpr.(3));
    set_pc = (fun pc -> cpu.Cpu.pc <- pc);
    step = (fun () -> ignore (Cpu.step cpu));
    outcome = (fun () -> describe Ferrite_risc.Exn.to_string (Cpu.step cpu));
    run1 = (fun () -> ignore (Cpu.run cpu ~max_steps:1));
    stats = (fun () -> Cpu.cache_stats cpu);
    block_len = Cpu.cached_block_len cpu;
    (* a remapped BAT0: fetches take an ISI at a scrambled address *)
    poison = (fun () -> cpu.Cpu.bat_poisoned <- true);
    poisoned_fetch =
      (fun pc ->
        describe Ferrite_risc.Exn.to_string
          (Step.Faulted (Ferrite_risc.Exn.Isi { addr = Word.mask (pc lxor 0x28280000) })));
  }

let cisc mem =
  let module Cpu = Ferrite_cisc.Cpu in
  let cpu = Cpu.create ~mem ~stop_addr in
  {
    name = "cisc";
    width = 5;
    load =
      (fun k addr ->
        Memory.poke8 mem addr 0xB8;
        (* mov eax, k *)
        Memory.poke32_le mem (addr + 1) k);
    reg = (fun () -> cpu.Cpu.regs.(Cpu.eax));
    set_pc = (fun pc -> cpu.Cpu.eip <- pc);
    step = (fun () -> ignore (Cpu.step cpu));
    outcome = (fun () -> describe Ferrite_cisc.Exn.to_string (Cpu.step cpu));
    run1 = (fun () -> ignore (Cpu.run cpu ~max_steps:1));
    stats = (fun () -> Cpu.cache_stats cpu);
    block_len = Cpu.cached_block_len cpu;
    (* a corrupted CR3 reloaded: every access takes a #PF at a scrambled
       address *)
    poison = (fun () -> cpu.Cpu.tlb_poisoned <- true);
    poisoned_fetch =
      (fun pc ->
        describe Ferrite_cisc.Exn.to_string
          (Step.Faulted
             (Ferrite_cisc.Exn.Page_fault
                { addr = Word.mask (pc lxor 0x5A5A5000); write = false; fetch = false })));
  }

let on_both f =
  List.iter
    (fun make ->
      let mem = Memory.create () in
      Memory.map mem ~addr:code_base ~size:0x1000 ~perm:Memory.perm_rx;
      f mem (make mem))
    [ risc; cisc ]

(* Each machine on two memories with the same two code pages mapped: one
   with the fast paths on, and the reference, the uncached interpreter. The
   test applies each action to both and compares what they observe. *)
let with_reference f =
  List.iter
    (fun make ->
      let fresh fast =
        Memory.set_fast_paths_default fast;
        let mem =
          Fun.protect
            ~finally:(fun () -> Memory.set_fast_paths_default true)
            Memory.create
        in
        Memory.map mem ~addr:code_base ~size:0x2000 ~perm:Memory.perm_rx;
        (mem, make mem)
      in
      f (fresh true) (fresh false))
    [ risc; cisc ]

(* The observations of [both], which must agree. *)
let agree msg (cached, reference) =
  check_string msg reference cached;
  cached

(* A poke elsewhere on the code page moves its generation but not the
   instruction's bytes: the decode is reused and counted as a hit. A poke to
   the instruction itself is decoded afresh. *)
let test_byte_revalidation () =
  on_both (fun mem m ->
      let msg s = m.name ^ ": " ^ s in
      m.load 5 code_base;
      m.set_pc code_base;
      m.step ();
      let s0 = m.stats () in
      Memory.poke8 mem (code_base + 0x800) 0xAA;
      m.set_pc code_base;
      m.step ();
      let s1 = m.stats () in
      check_int (msg "reused as a hit") (s0.Cache_stats.cs_decode_hits + 1)
        s1.Cache_stats.cs_decode_hits;
      check_int (msg "no miss") s0.Cache_stats.cs_decode_misses
        s1.Cache_stats.cs_decode_misses;
      check_int (msg "executed") 5 (m.reg ());
      m.load 9 code_base;
      m.set_pc code_base;
      m.step ();
      let s2 = m.stats () in
      check_int (msg "re-decoded") (s1.Cache_stats.cs_decode_misses + 1)
        s2.Cache_stats.cs_decode_misses;
      check_int (msg "the new bytes executed") 9 (m.reg ()))

(* 256 consecutive decode misses (the thrash bypass) stop block building;
   the first decode hit re-arms it. *)
let test_thrash_bypass () =
  on_both (fun _ m ->
      let msg s = m.name ^ ": " ^ s in
      let n = 256 in
      for k = 0 to n + 40 do
        m.load k (code_base + (k * m.width))
      done;
      m.set_pc code_base;
      for _ = 1 to n do
        m.step ()
      done;
      check_int (msg "every cold decode missed") n (m.stats ()).Cache_stats.cs_decode_misses;
      let fresh = code_base + ((n + 20) * m.width) in
      m.set_pc fresh;
      m.run1 ();
      check_int (msg "the fresh pc ran") (n + 20) (m.reg ());
      check_int (msg "no block built after the streak") 0 (m.stats ()).Cache_stats.cs_sb_blocks;
      check_int (msg "none cached at the fresh pc") (-1) (m.block_len fresh);
      m.set_pc code_base;
      m.step ();
      m.set_pc fresh;
      m.run1 ();
      check_int (msg "the first hit re-arms building") 1 (m.stats ()).Cache_stats.cs_sb_blocks;
      check_bool (msg "a block is cached at the fresh pc") true (m.block_len fresh > 0))

(* Past the thrash bypass the march through repeated identical
   instructions is served by comparing bytes, not by decoding; a copy that
   differs in its last byte must still run its own bytes. *)
let test_march_memo () =
  with_reference (fun ((_, m) as cached) reference ->
      let both g = (g cached, g reference) in
      let msg s = m.name ^ ": " ^ s in
      let n = Tcache.bypass_streak and copies = 16 and odd = 8 in
      let at k = code_base + (k * m.width) in
      ignore
        (both (fun (mem, r) ->
             for k = 0 to n - 1 do
               r.load k (at k)
             done;
             for j = 0 to copies - 1 do
               r.load 7 (at (n + j))
             done;
             Memory.poke8 mem (at (n + odd) + r.width - 1) 0x5A;
             r.set_pc code_base;
             for _ = 1 to n do
               r.step ()
             done));
      for j = 0 to copies - 1 do
        let got =
          agree (msg (Printf.sprintf "copy %d" j))
            (both (fun (_, r) ->
                 r.step ();
                 string_of_int (r.reg ())))
        in
        check_bool (msg (Printf.sprintf "copy %d ran its own bytes" j)) (j <> odd)
          (got = "7")
      done;
      let s = m.stats () in
      check_int (msg "the march missed throughout") (n + copies)
        s.Cache_stats.cs_decode_misses;
      check_int (msg "no hits") 0 s.Cache_stats.cs_decode_hits)

(* An instruction across a page boundary: a CISC instruction, or a RISC word
   at a misaligned pc. Its entry is validated by both pages: a poke to its
   byte on the second page is decoded afresh, and a poke elsewhere on that
   page is a hit. *)
let test_page_straddle () =
  with_reference (fun ((_, m) as cached) reference ->
      let both g = (g cached, g reference) in
      let msg s = m.name ^ ": " ^ s in
      let page2 = code_base + Memory.page_size in
      let pc = page2 - 2 in
      let run what =
        agree (msg what)
          (both (fun (_, r) ->
               r.set_pc pc;
               let o = r.outcome () in
               o ^ " " ^ string_of_int (r.reg ())))
      in
      ignore (both (fun (_, r) -> r.load 5 pc));
      ignore (run "first run");
      ignore (run "second run");
      let s0 = m.stats () in
      ignore (both (fun (mem, _) -> Memory.poke8 mem (page2 + 0x800) 0xAA));
      ignore (run "after a poke elsewhere on the second page");
      let s1 = m.stats () in
      ignore (both (fun (mem, r) -> Memory.poke8 mem (pc + r.width - 1) 0x5A));
      let before = string_of_int (m.reg ()) in
      let after = run "after a poke to the instruction's last byte" in
      let s2 = m.stats () in
      check_bool (msg "the poked byte executed") true (after <> "retired " ^ before);
      check_int (msg "poke elsewhere: a hit") (s0.Cache_stats.cs_decode_hits + 1)
        s1.Cache_stats.cs_decode_hits;
      check_int (msg "poke elsewhere: no miss") s0.Cache_stats.cs_decode_misses
        s1.Cache_stats.cs_decode_misses;
      check_int (msg "poke to the instruction: re-decoded")
        (s1.Cache_stats.cs_decode_misses + 1) s2.Cache_stats.cs_decode_misses)

(* A decode entry warmed before translation is poisoned: the fetch faults
   as in the uncached interpreter, at the scrambled address. *)
let test_poisoned_warm_entry () =
  with_reference (fun ((_, m) as cached) reference ->
      let both g = (g cached, g reference) in
      let msg s = m.name ^ ": " ^ s in
      let run what =
        agree (msg what)
          (both (fun (_, r) ->
               r.set_pc code_base;
               r.outcome ()))
      in
      ignore (both (fun (_, r) -> r.load 5 code_base));
      ignore (run "cold");
      ignore (run "warm");
      check_bool (msg "the entry is warm") true
        ((m.stats ()).Cache_stats.cs_decode_hits > 0);
      ignore (both (fun (_, r) -> r.poison ()));
      check_string (msg "poisoned") (m.poisoned_fetch code_base) (run "poisoned"))

(* --- the generation contract ---------------------------------------------- *)

(* A page's generation names its contents: a restore from the memory's own
   snapshot gives a page back the generation the snapshot recorded, so that
   translations built from the snapshot's bytes validate again. That is only
   sound if one page object never carries the same generation with different
   bytes or permissions. Random mutations, snapshots and restores over a few
   pages check it, including restores to a snapshot of another memory, whose
   clock may have issued the same values for other contents. *)

type mem_op =
  | Store of int * int * int  (* page, offset, byte *)
  | Poke of int * int * int
  | Flip of int * int * int  (* page, offset, bit *)
  | Set_perm of int * int  (* page, perm *)
  | Map of int
  | Unmap of int
  | Blit of int * int * int  (* page, offset, length: a loader write *)
  | Snapshot
  | Restore of int  (* one of the snapshots taken so far *)
  | Restore_foreign

let gen_pages = 3
let gen_span = 64  (* ops write only the first bytes of a page *)
let gen_base = 0xC0200000
let gen_addr page off = gen_base + (page * Memory.page_size) + off
let gen_perms = [| Memory.perm_rw; Memory.perm_ro; Memory.perm_rx; Memory.perm_rwx |]

let mem_op_gen ~foreign =
  let open QCheck.Gen in
  let page = int_bound (gen_pages - 1) and off = int_bound (gen_span - 1) in
  frequency
    ([
       (6, map3 (fun p o v -> Store (p, o, v)) page off (int_bound 255));
       (3, map3 (fun p o v -> Poke (p, o, v)) page off (int_bound 255));
       (3, map3 (fun p o b -> Flip (p, o, b)) page off (int_bound 7));
       (2, map2 (fun p k -> Set_perm (p, k)) page (int_bound (Array.length gen_perms - 1)));
       (1, map (fun p -> Map p) page);
       (1, map (fun p -> Unmap p) page);
       (1, map3 (fun p o n -> Blit (p, o, n)) page off (int_range 1 (2 * Memory.page_size)));
       (2, return Snapshot);
       (3, map (fun i -> Restore i) (int_bound 7));
     ]
    @ if foreign then [ (1, return Restore_foreign) ] else [])

let apply_op mem ~snaps ~foreign op =
  let attempt f = try f () with Memory.Fault _ | Invalid_argument _ -> () in
  match op with
  | Store (p, o, v) -> attempt (fun () -> Memory.store8 mem (gen_addr p o) v)
  | Poke (p, o, v) -> attempt (fun () -> Memory.poke8 mem (gen_addr p o) v)
  | Flip (p, o, bit) -> attempt (fun () -> Memory.flip_bit mem ~addr:(gen_addr p o) ~bit)
  | Set_perm (p, k) ->
    attempt (fun () ->
        Memory.set_perm mem ~addr:(gen_addr p 0) ~size:Memory.page_size ~perm:gen_perms.(k))
  | Map p -> Memory.map mem ~addr:(gen_addr p 0) ~size:Memory.page_size ~perm:Memory.perm_rw
  | Unmap p -> Memory.unmap mem ~addr:(gen_addr p 0) ~size:Memory.page_size
  | Blit (p, o, n) ->
    attempt (fun () -> Memory.blit_string mem ~addr:(gen_addr p o) (String.make n '\x5A'))
  | Snapshot -> snaps := Memory.snapshot mem :: !snaps
  | Restore i -> (
    match !snaps with
    | [] -> ()
    | l -> Memory.restore mem (List.nth l (i mod List.length l)))
  | Restore_foreign -> Option.iter (Memory.restore mem) foreign

let gen_memory () =
  let mem = Memory.create () in
  Memory.map mem ~addr:gen_base ~size:(gen_pages * Memory.page_size) ~perm:Memory.perm_rw;
  mem

(* With [adopt], the memory under test is built from the other memory's
   snapshot ([Memory.of_snapshot]) and keeps its recorded generations, on
   every restore to it too, while the other memory goes on issuing values
   from its own clock. *)
let prop_generation_names_contents ~adopt =
  QCheck.Test.make
    ~name:
      (if adopt then "an adopted snapshot's generations name its contents"
       else "a page object's generation names its contents")
    ~count:300
    QCheck.(
      pair
        (make QCheck.Gen.(list_size (int_range 1 60) (mem_op_gen ~foreign:true)))
        (make QCheck.Gen.(list_size (int_range 1 60) (mem_op_gen ~foreign:false))))
    (fun (ops, foreign_ops) ->
      let other = gen_memory () in
      List.iter (apply_op other ~snaps:(ref []) ~foreign:None) foreign_ops;
      let foreign = Some (Memory.snapshot other) in
      let mem = match foreign with Some s when adopt -> Memory.of_snapshot s | _ -> gen_memory () in
      if adopt then List.iter (apply_op other ~snaps:(ref []) ~foreign:None) foreign_ops;
      let snaps = ref [] in
      (* every page object seen, with the contents seen under each generation *)
      let seen : (Memory.page * (int, string * Memory.perm) Hashtbl.t) list ref = ref [] in
      let observe () =
        List.for_all
          (fun p ->
            match Memory.page_at_opt mem (gen_addr p 0) with
            | None -> true
            | Some pg ->
              let contents =
                ( String.init gen_span (fun o -> Char.chr (Memory.peek8 mem (gen_addr p o))),
                  Memory.page_perm pg )
              in
              let gens =
                match List.assq_opt pg !seen with
                | Some g -> g
                | None ->
                  let g = Hashtbl.create 16 in
                  seen := (pg, g) :: !seen;
                  g
              in
              let gen = Memory.page_generation pg in
              (match Hashtbl.find_opt gens gen with
              | Some c -> c = contents
              | None ->
                Hashtbl.replace gens gen contents;
                true))
          (List.init gen_pages Fun.id)
      in
      observe ()
      && List.for_all
           (fun op ->
             apply_op mem ~snaps ~foreign op;
             observe ())
           ops)

(* --- differential property ------------------------------------------------ *)

let run_campaign ~fast ~executor cfg =
  Memory.set_fast_paths_default fast;
  Fun.protect
    ~finally:(fun () -> Memory.set_fast_paths_default true)
    (fun () ->
      Campaign.run ~executor ~tracer:Ferrite_trace.Tracer.default_config cfg)

let kinds = [| Target.Stack; Target.Data; Target.Code; Target.Register |]
let arches = [| Image.Cisc; Image.Risc |]

let prop_fast_paths_invisible =
  QCheck.Test.make ~name:"cached == uncached (records, telemetry, traces)"
    ~count:4
    QCheck.(triple (int_bound 0xFFFF) (int_bound 3) (int_bound 1))
    (fun (seed, ki, ai) ->
      let cfg =
        {
          (Campaign.default ~arch:arches.(ai) ~kind:kinds.(ki) ~injections:5) with
          Campaign.seed = Int64.of_int (succ seed);
          engine = { Engine.default_config with Engine.step_budget = 200_000 };
        }
      in
      let base = run_campaign ~fast:false ~executor:Executor.Sequential cfg in
      let seq = run_campaign ~fast:true ~executor:Executor.Sequential cfg in
      let par =
        run_campaign ~fast:true ~executor:(Executor.Parallel { domains = 3 }) cfg
      in
      base.Campaign.records = seq.Campaign.records
      && base.Campaign.telemetry = seq.Campaign.telemetry
      && base.Campaign.traces = seq.Campaign.traces
      (* parallel may differ in boots (hence tl_boots) but nothing else *)
      && base.Campaign.records = par.Campaign.records
      && base.Campaign.traces = par.Campaign.traces
      && Ferrite_trace.Telemetry.with_boots base.Campaign.telemetry par.Campaign.reboots
         = Ferrite_trace.Telemetry.with_boots par.Campaign.telemetry par.Campaign.reboots)

let test_uncached_reports_no_cache_activity () =
  let cfg =
    {
      (Campaign.default ~arch:Image.Cisc ~kind:Target.Stack ~injections:3) with
      Campaign.seed = 0xCAFEL;
      engine = { Engine.default_config with Engine.step_budget = 100_000 };
    }
  in
  let r = run_campaign ~fast:false ~executor:Executor.Sequential cfg in
  check_int "no tlb hits" 0 r.Campaign.cache.Cache_stats.cs_tlb_hits;
  check_int "no decode hits" 0 r.Campaign.cache.Cache_stats.cs_decode_hits;
  check_int "no fast restores" 0 r.Campaign.cache.Cache_stats.cs_restore_fast;
  let rc = run_campaign ~fast:true ~executor:Executor.Sequential cfg in
  check_bool "cached run reports decode hits" true
    (rc.Campaign.cache.Cache_stats.cs_decode_hits > 0);
  check_bool "identical records regardless" true
    (r.Campaign.records = rc.Campaign.records)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ferrite_cache"
    [
      ( "decode eviction",
        [
          Alcotest.test_case "cisc poke evicts" `Quick test_cisc_poke_evicts;
          Alcotest.test_case "risc flip evicts" `Quick test_risc_flip_evicts;
          Alcotest.test_case "cisc CPU store evicts" `Quick test_cisc_cpu_store_evicts;
          Alcotest.test_case "risc CPU store evicts" `Quick test_risc_cpu_store_evicts;
        ] );
      ( "both ISAs",
        [
          Alcotest.test_case "byte revalidation" `Quick test_byte_revalidation;
          Alcotest.test_case "thrash bypass" `Quick test_thrash_bypass;
          Alcotest.test_case "march memo is exact" `Quick test_march_memo;
          Alcotest.test_case "page-straddling instruction" `Quick test_page_straddle;
          Alcotest.test_case "warm entry under translation poison" `Quick
            test_poisoned_warm_entry;
        ] );
      ( "generations",
        [
          q (prop_generation_names_contents ~adopt:false);
          q (prop_generation_names_contents ~adopt:true);
        ] );
      ( "differential",
        [
          q prop_fast_paths_invisible;
          Alcotest.test_case "cache stats reflect mode" `Quick
            test_uncached_reports_no_cache_activity;
        ] );
    ]
