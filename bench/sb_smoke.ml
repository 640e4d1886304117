(* sb-smoke: a seconds-scale superblock-invisibility gate for CI.

   Runs short campaigns twice each — superblocks on (the default) and off
   ([Memory.set_superblocks_default false]) — and exits non-zero unless both
   produce bit-identical records, telemetry, traces and columnar-store
   bytes, and the translated run actually executed through superblocks.
   Per architecture it runs a stack, a data and a code campaign. The code
   trials arm an execute breakpoint, so blocks also run (and are cut)
   inside the injection window. The data trials arm data watchpoints, so
   watchpoint hits end blocks from inside; data errors rarely activate, so
   those campaigns run 200 trials and must activate at least one. A second
   P4 stack campaign (seed 11, 14 trials) ends one trial in a wild march
   through zero-filled lowmem; the translated run must fast-forward it
   ([cs_march_steps > 0]) and the precise run must not. *)

module Image = Ferrite_kir.Image
module Campaign = Ferrite_injection.Campaign
module Target = Ferrite_injection.Target
module Memory = Ferrite_machine.Memory
module Cache_stats = Ferrite_machine.Cache_stats

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("sb-smoke: " ^ s); exit 1) fmt

let store_bytes res =
  let path = Filename.temp_file "ferrite_sb_smoke" ".fstore" in
  let w = Ferrite_store.Store.create path in
  Ferrite_injection.Result_store.append_result w res;
  Ferrite_store.Store.close w;
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  bytes

let run ?(seed = 0x2004L) ?(injections = 12) ?(march = false) arch kind =
  let cfg = { (Campaign.default ~arch ~kind ~injections) with Campaign.seed = seed } in
  let tracer = Ferrite_trace.Tracer.default_config in
  let on = Campaign.run ~tracer cfg in
  Memory.set_superblocks_default false;
  let off = Campaign.run ~tracer cfg in
  Memory.set_superblocks_default true;
  let name =
    Printf.sprintf "%s %s"
      (match arch with Image.Cisc -> "p4" | Image.Risc -> "g4")
      (match kind with Target.Code -> "code" | Target.Data -> "data" | _ -> "stack")
  in
  if on.Campaign.records <> off.Campaign.records then
    fail "%s: records differ between superblock and precise execution" name;
  if on.Campaign.traces <> off.Campaign.traces then
    fail "%s: event traces differ between superblock and precise execution" name;
  if on.Campaign.telemetry <> off.Campaign.telemetry then
    fail "%s: telemetry differs between superblock and precise execution" name;
  if store_bytes on <> store_bytes off then
    fail "%s: store bytes differ between superblock and precise execution" name;
  if on.Campaign.cache.Cache_stats.cs_sb_insns = 0 then
    fail "%s: translated run retired no instructions in superblocks" name;
  if off.Campaign.cache.Cache_stats.cs_sb_blocks <> 0 then
    fail "%s: precise run built superblocks" name;
  if off.Campaign.cache.Cache_stats.cs_march_steps <> 0 then
    fail "%s: precise run fast-forwarded a wild march" name;
  if march && on.Campaign.cache.Cache_stats.cs_march_steps = 0 then
    fail "%s: translated run fast-forwarded no wild march" name;
  if
    kind = Target.Data
    && not (List.exists (fun r -> r.Ferrite_injection.Outcome.r_activated) on.Campaign.records)
  then fail "%s: no trial activated, so no watchpoint hit was compared" name;
  on

let () =
  let p4 = run Image.Cisc Target.Stack in
  let g4 = run Image.Risc Target.Stack in
  let p4_code = run Image.Cisc Target.Code in
  let g4_code = run Image.Risc Target.Code in
  let p4_data = run ~injections:200 Image.Cisc Target.Data in
  let g4_data = run ~injections:200 Image.Risc Target.Data in
  let p4_march = run ~seed:11L ~injections:14 ~march:true Image.Cisc Target.Stack in
  let render (r : Campaign.result) = Format.asprintf "%a" Cache_stats.render r.Campaign.cache in
  Printf.printf
    "sb-smoke ok: 462 injections, records/traces/telemetry/store bytes \
     identical with superblocks on and off\n\
    \  p4 stack: %s\n  g4 stack: %s\n  p4 code: %s\n  g4 code: %s\n\
    \  p4 data: %s\n  g4 data: %s\n  p4 stack march: %s\n"
    (render p4) (render g4) (render p4_code) (render g4_code) (render p4_data)
    (render g4_data) (render p4_march)
