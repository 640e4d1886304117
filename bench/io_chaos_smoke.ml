(* io-chaos-smoke: a seconds-scale gate for the seeded I/O fault layer.

   Three legs, one short campaign each:

   - Quiet plan: a journalled in-process campaign and its store, run once
     disarmed and once under an armed plan whose every fault rate is zero.
     Both must make the same read/write/fsync calls and write the same
     journal and store bytes: arming the shim costs a draw per call and
     changes nothing else.

   - Recoverable seed: the campaign runs on a 2-worker fabric with a journal
     while an all-retriable fault plan is armed. Faults must actually fire,
     and the merged records, store bytes and journal entries must be
     byte-identical to the fault-free sequential run — the retry half of the
     invariant.

   - ENOSPC seed: the same campaign runs in-process with a journal under a
     plan whose global byte budget is tiny. The journal must degrade loudly
     (salvage recorded), the campaign must still complete with identical
     records, the on-disk prefix must recover cleanly, and a --resume from
     that prefix must finish the journal — the reported-salvage half.

   Exit 0 means the quiet plan was invisible and both halves of the
   invariant held: byte-identical completion
   or an explicitly-reported salvage state, never silent corruption. *)

module Image = Ferrite_kir.Image
module Campaign = Ferrite_injection.Campaign
module Target = Ferrite_injection.Target
module Supervisor = Ferrite_injection.Supervisor
module Journal = Ferrite_injection.Journal
module Result_store = Ferrite_injection.Result_store
module Telemetry = Ferrite_trace.Telemetry
module Fabric = Ferrite_fabric.Fabric
module Iofault = Ferrite_iofault.Iofault

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("io-chaos-smoke: " ^ s); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  bytes

let store_bytes res =
  let path = Filename.temp_file "ferrite_iochaos" ".fstore" in
  let w = Ferrite_store.Store.create path in
  Result_store.append_result w res;
  Ferrite_store.Store.close w;
  let bytes = read_file path in
  Sys.remove path;
  bytes

let boots_blind t = Telemetry.with_boots t 0

(* the first seeds whose derived plans land on each side of the ENOSPC coin *)
let find_seed want_enospc =
  let rec go s =
    if s > 64L then fail "no seed with enospc=%b in [0,64]" want_enospc
    else if
      Option.is_some (Iofault.plan_of_seed s).Iofault.pl_enospc_after = want_enospc
    then s
    else go (Int64.add s 1L)
  in
  go 0L

let () =
  let cfg =
    { (Campaign.default ~arch:Image.Cisc ~kind:Target.Stack ~injections:48) with
      Campaign.seed = 0x2004L }
  in
  let sv journal resume =
    {
      Campaign.sv_policy = Supervisor.default_policy;
      sv_chaos = Supervisor.no_chaos;
      sv_journal = Some journal;
      sv_resume = resume;
    }
  in
  let hash path =
    Journal.plan_hash_of_string (Campaign.plan_fingerprint ~supervision:(sv path false) cfg)
  in
  let reference = Campaign.run cfg in
  let ref_records = Array.of_list reference.Campaign.records in
  let ref_store = store_bytes reference in

  (* ---- leg 0: an armed plan that draws no fault is invisible ---- *)
  let quiet_plan =
    {
      Iofault.recoverable_plan with
      Iofault.pl_eintr = 0.0;
      pl_eagain = 0.0;
      pl_short_write = 0.0;
      pl_short_read = 0.0;
      pl_delay = 0.0;
    }
  in
  let journalled () =
    let journal = Filename.temp_file "ferrite_iochaos" ".journal" in
    let r = Campaign.run ~supervision:(sv journal false) cfg in
    let store = store_bytes r in
    let s = Iofault.stats () in
    let bytes = read_file journal in
    Sys.remove journal;
    ((s.Iofault.st_reads, s.Iofault.st_writes, s.Iofault.st_fsyncs), bytes, store)
  in
  Iofault.reset_stats ();
  let ((_, writes, _) as calls), journal_bytes, store = journalled () in
  Iofault.arm ~plan:quiet_plan ~seed:1L ();
  let quiet_calls, quiet_journal, quiet_store =
    Fun.protect ~finally:Iofault.disarm journalled
  in
  if (Iofault.stats ()).Iofault.st_faults <> 0 then fail "the quiet plan injected a fault";
  if writes = 0 then fail "the journalled campaign wrote nothing through the shim";
  if quiet_calls <> calls then fail "the quiet plan changed the read/write/fsync call counts";
  if quiet_journal <> journal_bytes then fail "the quiet plan changed the journal bytes";
  if quiet_store <> store || store <> ref_store then
    fail "the quiet plan changed the store bytes";

  (* ---- leg 1: recoverable chaos over a 2-worker fabric, with journal ---- *)
  let recoverable_seed = find_seed false in
  let journal = Filename.temp_file "ferrite_iochaos" ".journal" in
  Sys.remove journal;
  Iofault.arm ~seed:recoverable_seed ();
  let r, report = Fabric.run_campaign ~workers:2 ~journal cfg in
  let stats = Iofault.stats () in
  Iofault.disarm ();
  if stats.Iofault.st_faults = 0 then
    fail "the recoverable plan injected no faults; the gate proved nothing";
  if Iofault.salvage_labels () <> [] then
    fail "a recoverable plan must never degrade (salvaged: %s)"
      (String.concat "," (Iofault.salvage_labels ()));
  if report.Fabric.fb_missing <> 0 then
    fail "fabric left %d trial(s) behind under recoverable chaos" report.Fabric.fb_missing;
  if r.Campaign.records <> reference.Campaign.records then
    fail "records differ under recoverable io-chaos";
  if r.Campaign.collector <> reference.Campaign.collector then
    fail "collector stats differ under recoverable io-chaos";
  if boots_blind r.Campaign.telemetry <> boots_blind reference.Campaign.telemetry then
    fail "telemetry differs under recoverable io-chaos";
  if store_bytes r <> ref_store then fail "store bytes differ under recoverable io-chaos";
  let rc = Journal.recover ~path:journal ~plan_hash:(hash journal) in
  if rc.Journal.rc_truncated_bytes <> 0 then
    fail "the fabric journal has a torn tail under recoverable chaos";
  if List.length rc.Journal.rc_entries <> 48 then
    fail "the fabric journal holds %d of 48 entries" (List.length rc.Journal.rc_entries);
  List.iter
    (fun (e : Journal.entry) ->
      if e.Journal.je_record <> ref_records.(e.Journal.je_index) then
        fail "journal entry %d differs from the sequential record" e.Journal.je_index)
    rc.Journal.rc_entries;
  Sys.remove journal;

  (* ---- leg 2: an ENOSPC seed degrades loudly and stays resumable ---- *)
  let enospc_seed = find_seed true in
  let plan =
    (* the natural onset is 16-64 KiB; this campaign journals ~7 KiB, so
       pull the budget down to land mid-journal *)
    { (Iofault.plan_of_seed enospc_seed) with Iofault.pl_enospc_after = Some 1200 }
  in
  let journal = Filename.temp_file "ferrite_iochaos" ".journal" in
  Sys.remove journal;
  Iofault.arm ~plan ~seed:enospc_seed ();
  let r2 = Campaign.run ~supervision:(sv journal false) cfg in
  let stats2 = Iofault.stats () in
  let salvaged = Iofault.salvage_labels () in
  Iofault.disarm ();
  if stats2.Iofault.st_enospc = 0 then fail "the ENOSPC budget never fired";
  if not (List.mem "journal" salvaged) then
    fail "the journal did not report its salvage (labels: %s)"
      (String.concat "," salvaged);
  if r2.Campaign.records <> reference.Campaign.records then
    fail "records differ after an ENOSPC salvage — degradation was not graceful";
  let rc2 = Journal.recover ~path:journal ~plan_hash:(hash journal) in
  if rc2.Journal.rc_entries = [] then fail "nothing salvaged on disk before the budget";
  if List.length rc2.Journal.rc_entries >= 48 then
    fail "the tiny budget somehow fit the whole journal";
  List.iter
    (fun (e : Journal.entry) ->
      if e.Journal.je_record <> ref_records.(e.Journal.je_index) then
        fail "salvaged entry %d differs from the sequential record" e.Journal.je_index)
    rc2.Journal.rc_entries;
  (* the salvage prefix resumes to a byte-identical full journal *)
  let r3 = Campaign.run ~supervision:(sv journal true) cfg in
  if r3.Campaign.records <> reference.Campaign.records then
    fail "resume from the salvaged prefix diverged";
  let rc3 = Journal.recover ~path:journal ~plan_hash:(hash journal) in
  if List.length rc3.Journal.rc_entries <> 48 then
    fail "resume left the journal at %d of 48 entries" (List.length rc3.Journal.rc_entries);
  Sys.remove journal;
  Printf.printf
    "io-chaos-smoke ok: a quiet plan made the disarmed run's %d write call(s) and bytes; \
     48 injections byte-identical through %d recoverable fault(s) \
     (%d retries) on a 2-worker fabric; ENOSPC at 1200 bytes salvaged %d entries, \
     campaign completed, resume finished the journal\n"
    writes stats.Iofault.st_faults stats.Iofault.st_retries
    (List.length rc2.Journal.rc_entries)
