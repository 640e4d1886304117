(* bench-smoke: a seconds-scale slice of the throughput benchmark for CI.

   Runs one tiny campaign three ways — sequential, parallel (clamped via
   [Executor.of_jobs]), and sequential with every fast path disabled — and
   exits non-zero unless all three produce bit-identical records, telemetry
   and traces, and the cached run actually exercised the caches. Then runs a
   small code campaign per architecture cached and on the reference
   interpreter (no fast paths, no superblocks): code trials flip kernel text,
   so their restores rewind the generations of pages whose translations the
   next trial reuses, and the two runs must still agree byte for byte. *)

module Image = Ferrite_kir.Image
module Campaign = Ferrite_injection.Campaign
module Target = Ferrite_injection.Target
module Executor = Ferrite_injection.Executor
module Memory = Ferrite_machine.Memory
module Cache_stats = Ferrite_machine.Cache_stats

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("bench-smoke: " ^ s); exit 1) fmt

(* The cached run of a code campaign against the reference interpreter. *)
let check_code arch =
  let cfg =
    { (Campaign.default ~arch ~kind:Target.Code ~injections:40) with Campaign.seed = 0x2004L }
  in
  let tracer = Ferrite_trace.Tracer.default_config in
  let name = match arch with Image.Cisc -> "p4" | Image.Risc -> "g4" in
  let cached = Campaign.run ~tracer cfg in
  Memory.set_fast_paths_default false;
  Memory.set_superblocks_default false;
  let reference = Campaign.run ~tracer cfg in
  Memory.set_fast_paths_default true;
  Memory.set_superblocks_default true;
  if cached.Campaign.records <> reference.Campaign.records then
    fail "%s code campaign: records differ from the reference interpreter" name;
  if cached.Campaign.traces <> reference.Campaign.traces then
    fail "%s code campaign: event traces differ from the reference interpreter" name;
  if cached.Campaign.telemetry <> reference.Campaign.telemetry then
    fail "%s code campaign: telemetry differs from the reference interpreter" name;
  if cached.Campaign.cache.Cache_stats.cs_sb_hits = 0 then
    fail "%s code campaign: cached run reports no superblock hits" name;
  Printf.printf "bench-smoke ok: %s code campaign, %d injections identical to the reference\n"
    name (List.length cached.Campaign.records)

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
  check_code Image.Cisc;
  check_code Image.Risc
