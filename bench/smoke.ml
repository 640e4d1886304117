(* bench-smoke: a seconds-scale slice of the throughput benchmark for CI.

   Runs one tiny campaign three ways — sequential, parallel (clamped via
   [Executor.of_jobs]), and sequential with every fast path disabled — and
   exits non-zero unless all three produce bit-identical records, telemetry
   and traces, and the cached run actually exercised the caches. Then runs a
   small code campaign per architecture cached and on the reference
   interpreter (no fast paths, no superblocks): code trials flip kernel text,
   so their restores rewind the generations of pages whose translations the
   next trial reuses, and the two runs must still agree byte for byte. Last,
   a P4 stack campaign (seed 11, 14 trials) whose one wild march through
   zero-filled lowmem the cached run must fast-forward, against the
   reference interpreter the same way. Then two P4 campaigns share one
   [Campaign.inputs], so the kernel boots once and they take turns on its
   machine: run sequentially and then each on a 2-domain pool, both must
   reproduce the standalone runs' records. Last, a G4 data campaign on fresh
   inputs must not run the hot-set profile, which only code targets read. *)

module Image = Ferrite_kir.Image
module Campaign = Ferrite_injection.Campaign
module Target = Ferrite_injection.Target
module Executor = Ferrite_injection.Executor
module Memory = Ferrite_machine.Memory
module Cache_stats = Ferrite_machine.Cache_stats

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("bench-smoke: " ^ s); exit 1) fmt

(* The cached run of a campaign against the reference interpreter. *)
let check_reference ?(seed = 0x2004L) ?(march = false) arch kind ~injections =
  let cfg = { (Campaign.default ~arch ~kind ~injections) with Campaign.seed = seed } in
  let tracer = Ferrite_trace.Tracer.default_config in
  let name =
    Printf.sprintf "%s %s"
      (match arch with Image.Cisc -> "p4" | Image.Risc -> "g4")
      (match kind with Target.Code -> "code" | Target.Data -> "data" | _ -> "stack")
  in
  let cached = Campaign.run ~tracer cfg in
  Memory.set_fast_paths_default false;
  Memory.set_superblocks_default false;
  let reference = Campaign.run ~tracer cfg in
  Memory.set_fast_paths_default true;
  Memory.set_superblocks_default true;
  if cached.Campaign.records <> reference.Campaign.records then
    fail "%s campaign: records differ from the reference interpreter" name;
  if cached.Campaign.traces <> reference.Campaign.traces then
    fail "%s campaign: event traces differ from the reference interpreter" name;
  if cached.Campaign.telemetry <> reference.Campaign.telemetry then
    fail "%s campaign: telemetry differs from the reference interpreter" name;
  if cached.Campaign.cache.Cache_stats.cs_sb_hits = 0 then
    fail "%s campaign: cached run reports no superblock hits" name;
  if march && cached.Campaign.cache.Cache_stats.cs_march_steps = 0 then
    fail "%s campaign: cached run fast-forwarded no wild march" name;
  if reference.Campaign.cache.Cache_stats.cs_march_steps <> 0 then
    fail "%s campaign: reference run fast-forwarded a wild march" name;
  Printf.printf "bench-smoke ok: %s campaign, %d injections identical to the reference\n"
    name (List.length cached.Campaign.records)

(* Two campaigns on one inputs against their standalone records: a code
   campaign leaves blocks of flipped bytes behind in the shared machine for
   the stack campaign that takes it next. *)
let check_shared ~stack ~stack_records =
  let code =
    { (Campaign.default ~arch:Image.Cisc ~kind:Target.Code ~injections:40) with
      Campaign.seed = 0x2004L }
  in
  let code_records = (Campaign.run code).Campaign.records in
  let inputs = Campaign.build_inputs Image.Cisc in
  List.iter
    (fun (label, executor) ->
      List.iter
        (fun (cfg, records) ->
          if (Campaign.run ~executor ~inputs cfg).Campaign.records <> records then
            fail "shared inputs, %s: records differ from a standalone run" label)
        [ (code, code_records); (stack, stack_records) ])
    [ ("sequential", Executor.Sequential); ("2 domains", Executor.Parallel { domains = 2 }) ];
  Printf.printf
    "bench-smoke ok: two campaigns on one inputs, sequential and on 2 domains, identical to \
     standalone runs\n"

let check_data_never_profiles () =
  let p0 = Campaign.profiles_run () in
  let r =
    Campaign.run
      { (Campaign.default ~arch:Image.Risc ~kind:Target.Data ~injections:20) with
        Campaign.seed = 0x2004L }
  in
  if Campaign.profiles_run () <> p0 then fail "a data campaign ran the hot-set profile";
  if r.Campaign.hot_profile <> [] then fail "a data campaign reports a hot set";
  print_endline "bench-smoke ok: a data campaign on fresh inputs never profiles"

let () =
  let cfg =
    { (Campaign.default ~arch:Image.Cisc ~kind:Target.Stack ~injections:12) with
      Campaign.seed = 0x2004L }
  in
  let tracer = Ferrite_trace.Tracer.default_config in
  let seq = Campaign.run ~tracer cfg in
  let par = Campaign.run ~tracer ~executor:(Executor.of_jobs 4) cfg in
  Memory.set_fast_paths_default false;
  let slow = Campaign.run ~tracer cfg in
  Memory.set_fast_paths_default true;
  if seq.Campaign.records <> par.Campaign.records then
    fail "records differ between sequential and parallel executors";
  if seq.Campaign.records <> slow.Campaign.records then
    fail "records differ between cached and uncached fast paths";
  if seq.Campaign.traces <> slow.Campaign.traces then
    fail "event traces differ between cached and uncached fast paths";
  if seq.Campaign.telemetry <> slow.Campaign.telemetry then
    fail "telemetry differs between cached and uncached fast paths";
  if seq.Campaign.cache.Cache_stats.cs_decode_hits = 0 then
    fail "cached run reports no decode-cache hits";
  if slow.Campaign.cache.Cache_stats.cs_tlb_hits <> 0 then
    fail "uncached run reports TLB hits";
  Printf.printf
    "bench-smoke ok: %d injections, records identical across executors and \
     fast-path modes (%s)\n"
    (List.length seq.Campaign.records)
    (Format.asprintf "%a" Cache_stats.render seq.Campaign.cache);
  check_shared ~stack:cfg ~stack_records:seq.Campaign.records;
  check_reference Image.Cisc Target.Code ~injections:40;
  check_reference Image.Risc Target.Code ~injections:40;
  check_reference ~seed:11L ~march:true Image.Cisc Target.Stack ~injections:14;
  check_data_never_profiles ()
