(* dist-smoke: a seconds-scale distributed-merge gate for CI.

   Runs one short campaign twice — sequentially, and on the fabric with two
   forked workers of which one is SIGKILLed mid-campaign and a replacement
   joins late — and exits non-zero unless both produce bit-identical records,
   traces, dumps, collector stats, telemetry (boots excepted: they are a
   scheduling diagnostic), columnar-store bytes and the rendered per-model
   breakout. The kill must actually land mid-flight, and the death must show
   up in the fabric report — otherwise the gate proved nothing.

   A second leg runs a code campaign, whose profile leaves the controller's
   booted spare warm: two workers forked before the controller's first step
   run on their copies of that spare, and a third, forked after the step
   dropped it, builds its machine from the snapshot. Together they must
   reproduce the sequential run the same way. *)

module Image = Ferrite_kir.Image
module Campaign = Ferrite_injection.Campaign
module Target = Ferrite_injection.Target
module Result_store = Ferrite_injection.Result_store
module Telemetry = Ferrite_trace.Telemetry
module Fabric = Ferrite_fabric.Fabric

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("dist-smoke: " ^ s); exit 1) fmt

let store_bytes res =
  let path = Filename.temp_file "ferrite_dist_smoke" ".fstore" in
  let w = Ferrite_store.Store.create path in
  Result_store.append_result w res;
  Ferrite_store.Store.close w;
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  bytes

let boots_blind t = Telemetry.with_boots t 0

let check_identical ~(reference : Campaign.result) (r : Campaign.result) =
  if r.Campaign.records <> reference.Campaign.records then
    fail "records differ between the fabric merge and the sequential run";
  if r.Campaign.traces <> reference.Campaign.traces then
    fail "traces differ between the fabric merge and the sequential run";
  if r.Campaign.dumps <> reference.Campaign.dumps then
    fail "crash dumps differ between the fabric merge and the sequential run";
  if r.Campaign.collector <> reference.Campaign.collector then
    fail "collector stats differ between the fabric merge and the sequential run";
  if boots_blind r.Campaign.telemetry <> boots_blind reference.Campaign.telemetry then
    fail "telemetry differs between the fabric merge and the sequential run";
  if store_bytes r <> store_bytes reference then
    fail "store bytes differ between the fabric merge and the sequential run";
  if Ferrite.Report.model_breakout r <> Ferrite.Report.model_breakout reference then
    fail "the rendered model breakout differs between fabric and sequential"

let campaign kind n =
  { (Campaign.default ~arch:Image.Cisc ~kind ~injections:n) with Campaign.seed = 0x2004L }

let kill_and_rejoin () =
  let cfg = campaign Target.Stack 48 in
  let reference = Campaign.run cfg in
  let t = Fabric.Controller.create cfg in
  let first = Fabric.Controller.add_worker t in
  ignore (Fabric.Controller.add_worker t);
  let deadline = Unix.gettimeofday () +. 60.0 in
  while Fabric.Controller.completed t < 4 && Unix.gettimeofday () < deadline do
    Fabric.Controller.step t ~timeout:0.05
  done;
  if Fabric.Controller.finished t then
    fail "campaign finished before the kill could land; grow the campaign";
  (match Fabric.Controller.worker_pid t first with
  | Some pid -> Unix.kill pid Sys.sigkill
  | None -> fail "forked worker has no pid");
  ignore (Fabric.Controller.add_worker t);
  let r, report = Fabric.Controller.finish t in
  if report.Fabric.fb_worker_deaths <> 1 then
    fail "expected exactly one worker death, saw %d" report.Fabric.fb_worker_deaths;
  if report.Fabric.fb_quarantined <> [] then
    fail "a healthy campaign quarantined %d trial(s)"
      (List.length report.Fabric.fb_quarantined);
  if report.Fabric.fb_workers <> 3 then
    fail "expected three workers ever joined, saw %d" report.Fabric.fb_workers;
  check_identical ~reference r;
  Printf.printf
    "dist-smoke ok: 48 injections over a 2-worker fabric with one SIGKILL and \
     one late join — records/traces/dumps/collector/telemetry/store bytes \
     byte-identical to the sequential run (%d fresh results, %d re-leased, %d \
     duplicate(s) dropped)\n"
    report.Fabric.fb_results report.Fabric.fb_requeued report.Fabric.fb_dup_results

let warm_spare_and_late_join () =
  let cfg = campaign Target.Code 32 in
  let reference = Campaign.run cfg in
  let t = Fabric.Controller.create ~chunk:2 cfg in
  ignore (Fabric.Controller.add_worker t);
  ignore (Fabric.Controller.add_worker t);
  Fabric.Controller.step t ~timeout:0.0;
  ignore (Fabric.Controller.add_worker t);
  let r, report = Fabric.Controller.finish t in
  if report.Fabric.fb_workers <> 3 then
    fail "expected three workers ever joined, saw %d" report.Fabric.fb_workers;
  if report.Fabric.fb_worker_deaths <> 0 then
    fail "a healthy fleet lost %d worker(s)" report.Fabric.fb_worker_deaths;
  if r.Campaign.hot_profile <> reference.Campaign.hot_profile then
    fail "the hot profile differs between the fabric merge and the sequential run";
  check_identical ~reference r;
  Printf.printf
    "dist-smoke ok: 32 code injections over two workers forked from the warm spare \
     and one late join — byte-identical to the sequential run (%d fresh results)\n"
    report.Fabric.fb_results

let () =
  kill_and_rejoin ();
  warm_spare_and_late_join ()
