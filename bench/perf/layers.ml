(* Traced runs: the per-layer ledger.

   1. Round 0 runs untraced through the workload's own entry point: the
      reference records, the raw end-to-end values and the executor and
      fabric counters.
   2. Rounds 0, 1, ... run through the benchmark's own loop ({!Loop},
      {!Work.loop_campaign}) with a span around every call into a layer and
      counts taken at the same boundaries, until the time is up. Parallel
      workloads are traced as a sequential run of the same plan.
   3. Round 0 runs once more through the loop, untraced: the baseline for
      the tracing overhead and for a parallel workload's speed-up.
   4. Round 0's results go through the persistence layers — journal,
      recovery, resume, store, scan, report — on every workload. *)

module Campaign = Ferrite_injection.Campaign
module Outcome = Ferrite_injection.Outcome
module Journal = Ferrite_injection.Journal
module Result_store = Ferrite_injection.Result_store
module Store = Ferrite_store.Store
module Cache_stats = Ferrite_machine.Cache_stats
module Telemetry = Ferrite_trace.Telemetry
module Fabric = Ferrite_fabric.Fabric

(* Records, traces, dumps, collector tallies and boots-blind telemetry: the
   fields every executor must reproduce. *)
let same_results (a : Campaign.result) (b : Campaign.result) =
  a.Campaign.records = b.Campaign.records
  && a.Campaign.traces = b.Campaign.traces
  && a.Campaign.dumps = b.Campaign.dumps
  && a.Campaign.collector = b.Campaign.collector
  && Telemetry.with_boots a.Campaign.telemetry 0 = Telemetry.with_boots b.Campaign.telemetry 0

let outcome_share = function
  | Outcome.Not_activated -> "not_activated"
  | Outcome.Not_manifested -> "not_manifested"
  | Outcome.Fail_silence_violation -> "fsv"
  | Outcome.Known_crash _ | Outcome.Unknown_crash -> "crash"
  | Outcome.Hang -> "hang"
  | Outcome.Infrastructure_failure _ -> "infrastructure" (* never from the loop: no supervisor retries *)

let file_size path = (Unix.stat path).Unix.st_size

(* One round's campaigns through the loop, each with its completion clock. *)
let loop_round ?sp ?counts ?(journal = fun _ -> None) ?next_id ?(after = fun _ _ -> ()) cfgs =
  let runs =
    List.mapi
      (fun k cfg ->
        let c = Work.clock (Host.now ()) in
        let on_trial id record =
          Work.complete c (Host.now ());
          after id record
        in
        (c, Work.loop_campaign ?sp ?counts ?journal:(journal k) ?next_id ~on_trial cfg))
      cfgs
  in
  (List.map fst runs, List.map snd runs)

let run ~quick ~tmp ~out (w : Plan.t) ~seed ~seconds : E2e.outcome =
  let cfgs = Plan.campaigns ~quick w ~seed ~round:0 in
  Host.probe ();
  let reference, reference_ok = E2e.run_round ~quick ~tmp w ~seed ~round:0 in
  (* 2: traced rounds *)
  let sp = Spans.create () in
  let counts = Loop.counts () in
  let outcomes = Hashtbl.create 4096 in
  let next = ref 0 in
  let next_id () =
    incr next;
    !next - 1
  in
  let probe () = Spans.with_span sp "bench.probe" Host.probe in
  (* round 0's journals stay for step 4; later rounds' are dropped *)
  let journal_path round k = Filename.concat tmp (Printf.sprintf "round%d-%d.journal" round k) in
  let traced_round round =
    probe ();
    let journal k = if w.Plan.shape = Plan.Persist then Some (journal_path round k) else None in
    let clocks, results =
      loop_round ~sp ~counts ~next_id ~journal
        ~after:(fun id (record : Outcome.record) ->
          Hashtbl.replace outcomes id (outcome_share record.Outcome.r_outcome);
          if Host.due () then probe ())
        cfgs
    in
    if round > 0 then List.iteri (fun k _ -> Option.iter Sys.remove (journal k)) cfgs;
    (clocks, results)
  in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let clocks0, round0 = traced_round 0 in
  let exact = { counts with Loop.trials = counts.Loop.trials } in
  let major_collections = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let budget = int_of_float (seconds *. 1e9) and t_start = Host.now () in
  let rec more round acc =
    if quick || Host.now () - t_start >= budget then acc
    else more (round + 1) (acc @ fst (traced_round round))
  in
  let later = more 1 [] in
  (* 3: the untraced baseline *)
  Host.probe ();
  let untraced_clocks, untraced = loop_round cfgs in
  let untraced = List.map snd untraced in
  (* 4: persistence of round 0's results *)
  let results0 = List.map snd round0 in
  let persisted =
    Spans.with_span sp "persist" (fun () ->
        List.mapi
          (fun k (entries, (r : Campaign.result)) ->
            let path = journal_path 0 k in
            let hash = Work.plan_hash ~supervision:(Work.supervision ~journal:path ~resume:false) r.Campaign.cfg in
            (* g4-data-persist journaled inside its trial loop already *)
            if w.Plan.shape <> Plan.Persist then begin
              let jw, _ = Journal.open_for_append ~path ~plan_hash:hash in
              Array.iter
                (fun e -> Spans.with_span sp "injection.journal_append" (fun () -> Journal.append jw e))
                entries;
              Journal.close jw
            end;
            let bytes = file_size path - Journal.header_size in
            let recovered =
              Spans.with_span sp "injection.journal_recover" (fun () -> Journal.recover ~path ~plan_hash:hash)
            in
            let resumed =
              Spans.with_span sp "injection.resume" (fun () ->
                  Campaign.run ~supervision:(Work.supervision ~journal:path ~resume:true) r.Campaign.cfg)
            in
            Sys.remove path;
            ( bytes,
              List.length recovered.Journal.rc_entries = Array.length entries
              && resumed.Campaign.records = r.Campaign.records ))
          round0)
  in
  let store = Filename.concat tmp "round0.store" in
  let rows =
    Spans.with_span sp "store.append" (fun () ->
        let sw = Store.create store in
        List.iter (Result_store.append_result sw) results0;
        Store.close sw;
        Store.rows_written sw)
  in
  let store_bytes = file_size store in
  let _, scan = Spans.with_span sp "store.aggregate" (fun () -> Result_store.aggregate store) in
  let report = Spans.with_span sp "core.report" (fun () -> Work.report w ~store results0) in
  Sys.remove store;
  (* correctness: the loop against the program, and against the digest *)
  let loop_ok =
    List.length results0 = List.length reference.E2e.results
    && List.for_all2 same_results results0 reference.E2e.results
    && List.for_all2 same_results results0 untraced
  in
  let digest = Work.digest results0 in
  let committed = Digests.find ~workload:w.Plan.name ~seed ~quick in
  let digest_ok = match committed with Some d -> d = digest | None -> true in
  let persist_ok = List.for_all snd persisted && scan.Store.sc_rows = rows && String.length report > 0 in
  let spans = Spans.spans sp in
  let tree = Spans.check spans in
  (* the ledger *)
  let self = Spans.self_times spans in
  let named name = List.filter (fun (s : Spans.span) -> s.Spans.name = name) (Array.to_list spans) in
  let total name = float_of_int (List.fold_left (fun n s -> n + Spans.duration s) 0 (named name)) in
  let median name = Quant.median (List.map (fun s -> float_of_int (Spans.duration s)) (named name)) in
  let mean name = total name /. float_of_int (max 1 (List.length (named name))) in
  let trials = List.length (named "trial") in
  let per_trial name = total name /. float_of_int (max 1 trials) in
  let share name = total name /. total "trial" in
  let slow = Host.slowdown () in
  let ms ns = ns /. 1e6 /. slow and us ns = ns /. 1e3 /. slow in
  let run_one_by_outcome = Hashtbl.create 8 in
  List.iter
    (fun (s : Spans.span) ->
      let o = Hashtbl.find outcomes s.Spans.trial in
      Hashtbl.replace run_one_by_outcome o
        (Spans.duration s + Option.value ~default:0 (Hashtbl.find_opt run_one_by_outcome o)))
    (named "injection.run_one");
  let unattributed = ref 0 in
  Array.iteri (fun i (s : Spans.span) -> if s.Spans.name = "trial" then unattributed := !unattributed + self.(i)) spans;
  let n0 = float_of_int (max 1 exact.Loop.trials) in
  let cs = exact.Loop.cache in
  let baseline_rate = Work.rate untraced_clocks in
  let speedup shape = if w.Plan.shape = shape then Work.rate reference.E2e.clocks /. baseline_rate else 0.0 in
  let fab f = match reference.E2e.fabric with Some rep -> float_of_int (f rep) | None -> 0.0 in
  let executor_boots =
    if w.Plan.shape <> Plan.Jobs2 then 0.0
    else
      (* every boot pre-warms the same cache entries once, so the pool's
         pre-warm count over the loop's single boot counts its boots *)
      let prewarmed rs =
        List.fold_left (fun n (r : Campaign.result) -> n + r.Campaign.cache.Cache_stats.cs_prewarmed) 0 rs
      in
      float_of_int (prewarmed reference.E2e.results) /. float_of_int (prewarmed untraced)
  in
  let journal_bytes = List.fold_left (fun n (b, _) -> n + b) 0 persisted in
  let per_row x = float_of_int x /. float_of_int (max 1 rows) in
  let metrics =
    [
      ("kir.build_image_ms", ms (median "kir.build_image"), "ms");
      ("workload.profile_ms", ms (median "workload.profile"), "ms");
      ("kernel.boot_ms", ms (median "kernel.boot"), "ms");
      ("kernel.prewarm_ms", ms (median "kernel.prewarm"), "ms");
      ("kernel.snapshot_ms", ms (median "kernel.snapshot"), "ms");
      ("kernel.restore_us", us (per_trial "kernel.restore"), "us");
      ("kernel.restore_share", share "kernel.restore", "ratio");
      ("machine.restore_pages_per_trial", float_of_int exact.Loop.restore_pages /. n0, "pages");
      ("workload.ops_us", us (per_trial "workload.ops"), "us");
      ("injection.target_us", us (per_trial "injection.target"), "us");
      ("injection.run_one_ms_p50", ms (median "injection.run_one"), "ms");
      ("injection.run_one_share", share "injection.run_one", "ratio");
    ]
    @ List.map
        (fun o ->
          ( "injection.time_share." ^ o,
            float_of_int (Option.value ~default:0 (Hashtbl.find_opt run_one_by_outcome o)) /. total "injection.run_one",
            "ratio" ))
        [ "not_activated"; "not_manifested"; "fsv"; "crash"; "hang" ]
    @ [
        ("injection.watchdog_expiries", float_of_int exact.Loop.watchdog, "count");
        ("cpu.sim_insns_per_trial", float_of_int exact.Loop.insns /. n0, "insns");
        ("cpu.sim_cycles_per_trial", float_of_int exact.Loop.cycles /. n0, "cycles");
        ("cpu.sim_mips", float_of_int counts.Loop.insns /. (total "injection.run_one" /. 1e3) *. slow, "MIPS");
        ("cpu.ns_per_sim_insn", total "injection.run_one" /. float_of_int (max 1 counts.Loop.insns) /. slow, "ns");
        ("cpu.sb_hit_rate", Cache_stats.sb_hit_rate cs, "ratio");
        ("cpu.sb_fallbacks_per_trial", float_of_int cs.Cache_stats.cs_sb_fallbacks /. n0, "count");
        ("cpu.sb_blocks_built", float_of_int cs.Cache_stats.cs_sb_blocks, "count");
        ("cpu.decode_hit_rate", Cache_stats.decode_hit_rate cs, "ratio");
        ("cpu.decode_warm_rate", Cache_stats.decode_warm_rate cs, "ratio");
        ("cpu.decode_misses_per_trial", float_of_int cs.Cache_stats.cs_decode_misses /. n0, "count");
        ("machine.tlb_hit_rate", Cache_stats.tlb_hit_rate cs, "ratio");
        ("machine.tlb_misses_per_trial", float_of_int cs.Cache_stats.cs_tlb_misses /. n0, "count");
        ("injection.journal_append_us", us (mean "injection.journal_append"), "us");
        ( "injection.journal_bytes_per_trial",
          float_of_int journal_bytes /. float_of_int (max 1 (List.length (List.concat_map (fun r -> r.Campaign.records) results0))),
          "B" );
        ("injection.journal_recover_ms", ms (total "injection.journal_recover"), "ms");
        ("injection.resume_ms", ms (total "injection.resume"), "ms");
        ("store.append_us", us (total "store.append" /. float_of_int (max 1 rows)), "us");
        ("store.bytes_per_row", per_row store_bytes, "B");
        ("store.scan_rows_per_s", float_of_int scan.Store.sc_rows /. (total "store.aggregate" /. 1e9) *. slow, "rows/s");
        ("core.report_ms", ms (total "core.report"), "ms");
        ("executor.speedup_vs_seq", speedup Plan.Jobs2, "x");
        ("executor.boots", executor_boots, "count");
        ("fabric.speedup_vs_seq", speedup Plan.Fleet2, "x");
        ("fabric.steals", fab (fun r -> r.Fabric.fb_steals), "count");
        ("fabric.steal_returns", fab (fun r -> r.Fabric.fb_steal_returns), "count");
        ("fabric.dup_results", fab (fun r -> r.Fabric.fb_dup_results), "count");
        ("fabric.retransmitted", fab (fun r -> r.Fabric.fb_retransmitted), "count");
        ("fabric.expired", fab (fun r -> r.Fabric.fb_expired), "count");
        ("fabric.requeued", fab (fun r -> r.Fabric.fb_requeued), "count");
        ("trace.events_per_trial", float_of_int exact.Loop.events /. n0, "count");
        ("gc.minor_words_per_trial", exact.Loop.minor_words /. n0, "words");
        ("gc.promoted_words_per_trial", exact.Loop.promoted_words /. n0, "words");
        ("gc.major_collections", float_of_int major_collections, "count");
        ("bench.unattributed_share", float_of_int !unattributed /. total "trial", "ratio");
        ("bench.trace_overhead_pct", 100.0 *. ((baseline_rate /. Work.rate clocks0) -. 1.0), "%");
        ("bench.host_probe_ms", Quant.mean (Host.probe_ms ()), "ms");
        ("bench.host_probe_iqr_pct", 100.0 *. Quant.iqr_share (Host.probe_ms ()), "%");
      ]
    @ List.map (fun (n, v, u) -> ("bench.raw." ^ n, v, u)) (E2e.figures [ (reference, 1.0) ])
  in
  (* per-layer self times, and the spans themselves *)
  let by_name = Hashtbl.create 32 in
  Array.iteri
    (fun i (s : Spans.span) ->
      let n, t = Option.value ~default:(0, 0) (Hashtbl.find_opt by_name s.Spans.name) in
      Hashtbl.replace by_name s.Spans.name (n + 1, t + self.(i)))
    spans;
  let root_ns =
    Array.fold_left (fun n (s : Spans.span) -> if s.Spans.parent < 0 then n + Spans.duration s else n) 0 spans
  in
  let table =
    Hashtbl.fold (fun name (n, t) acc -> (name, n, t) :: acc) by_name []
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
    |> List.map (fun (name, n, t) ->
           Printf.sprintf "self %-28s %8d spans %10.1f ms %5.1f%%" name n (float_of_int t /. 1e6)
             (100.0 *. float_of_int t /. float_of_int root_ns))
  in
  let trace_file = Filename.concat out (Printf.sprintf "trace-%s.json" w.Plan.name) in
  Json.write_file trace_file (Spans.to_json ~workload:w.Plan.name spans);
  {
    E2e.correct = reference_ok && loop_ok && digest_ok && persist_ok && tree = Ok ();
    attempted = List.fold_left (fun n c -> n + c.Work.done_) 0 (clocks0 @ later);
    failed = reference.E2e.failed;
    metrics;
    raw = [];
    notes =
      [
        Printf.sprintf "traced %d trials; %d spans written to %s" trials (Array.length spans) trace_file;
        Printf.sprintf "loop == program on round 0: %b; digest %s%s; persistence round trip: %b; span tree: %s"
          loop_ok digest
          (match committed with
          | Some _ -> if digest_ok then " (matches committed)" else " (DIFFERS from committed)"
          | None -> "")
          persist_ok
          (match tree with Ok () -> "valid" | Error e -> e);
        "exact counts (cpu.*, machine.*, trace.*, gc.*, watchdog) cover traced round 0; times cover every round";
      ]
      @ table;
  }
