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
   immediate [k] into the first register" at [addr], [width] bytes long. *)
type machine = {
  name : string;
  width : int;
  load : int -> int -> unit;
  reg : unit -> int;
  set_pc : int -> unit;
  step : unit -> unit;
  run1 : unit -> unit;
  stats : unit -> Cache_stats.t;
  block_len : int -> int;
}

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
    run1 = (fun () -> ignore (Cpu.run cpu ~max_steps:1));
    stats = (fun () -> Cpu.cache_stats cpu);
    block_len = Cpu.cached_block_len cpu;
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
    run1 = (fun () -> ignore (Cpu.run cpu ~max_steps:1));
    stats = (fun () -> Cpu.cache_stats cpu);
    block_len = Cpu.cached_block_len cpu;
  }

let on_both f =
  List.iter
    (fun make ->
      let mem = Memory.create () in
      Memory.map mem ~addr:code_base ~size:0x1000 ~perm:Memory.perm_rx;
      f mem (make mem))
    [ risc; cisc ]

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
        ] );
      ( "differential",
        [
          q prop_fast_paths_invisible;
          Alcotest.test_case "cache stats reflect mode" `Quick
            test_uncached_reports_no_cache_activity;
        ] );
    ]
