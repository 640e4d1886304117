(* Untraced runs: each workload through the program's own public entry
   points, timed from its progress callback or controller loop. *)

module Campaign = Ferrite_injection.Campaign
module Executor = Ferrite_injection.Executor
module Store = Ferrite_store.Store
module Result_store = Ferrite_injection.Result_store
module Fabric = Ferrite_fabric.Fabric

type round = {
  clocks : Work.clock list;  (** one per campaign, in order *)
  wall_ns : int;  (** the whole round: set-up, trials, persistence, report *)
  report_ns : float;  (** one render of the round's report *)
  results : Campaign.result list;
  planned : int;  (** trials the round's campaigns planned *)
  failed : int;  (** quarantined trials plus trials the fabric never merged *)
  fabric : Fabric.report option;
}

(* Sequential workloads also sample the probe from the progress callback,
   so it lands between completions and [Host.now] excludes it. Parallel
   workloads sample it only between rounds: run beside two busy workers on
   two cores it measured contention, not host speed (median 10.9 ms, IQR 32%
   on the fleet against 5.9 ms, 2% sequential). *)
let on_progress c =
  Work.complete c (Host.now ());
  Host.maybe_probe ()

let run_round ~quick ~tmp (w : Plan.t) ~seed ~round =
  let cfgs = Plan.campaigns ~quick w ~seed ~round in
  let t0 = Host.now () in
  let clocks = ref [] in
  let fresh_clock started =
    let c = Work.clock started in
    clocks := c :: !clocks;
    c
  in
  let results, fabric, store =
    match (w.Plan.shape, cfgs) with
    | Plan.Suite arch, _ ->
      (* campaign k's first call follows campaign k-1's last completion *)
      let cur = ref None in
      let progress name ~done_:_ ~total:_ =
        let c =
          match !cur with
          | Some (n, c) when n = name -> c
          | prev ->
            let c = fresh_clock (match prev with Some (_, p) -> p.Work.last | None -> t0) in
            cur := Some (name, c);
            c
        in
        on_progress c
      in
      let s =
        Ferrite.Suite.run ~seed:(Plan.round_seed seed round) ~progress
          ~scale:(Plan.suite_scale ~quick arch) arch
      in
      ([ s.Ferrite.Suite.stack; s.sysreg; s.data; s.code ], None, None)
    | Plan.Jobs2, [ cfg ] ->
      let c = fresh_clock t0 in
      let progress ~done_:_ ~total:_ = Work.complete c (Host.now ()) in
      ([ Campaign.run ~progress ~executor:(Executor.Parallel { domains = 2 }) cfg ], None, None)
    | Plan.Fleet2, [ cfg ] ->
      let c = fresh_clock t0 in
      let chunk = Executor.chunk_size ~total:cfg.Campaign.injections ~workers:2 in
      let t = Fabric.Controller.create ~chunk cfg in
      ignore (Fabric.Controller.add_worker t);
      ignore (Fabric.Controller.add_worker t);
      let seen = ref 0 in
      while not (Fabric.Controller.finished t) do
        if Fabric.Controller.workers_alive t = 0 then failwith "fabric: every worker died";
        Fabric.Controller.step t ~timeout:0.05;
        let k = Fabric.Controller.completed t - !seen in
        if k > 0 then begin
          Work.complete ~k c (Host.now ());
          seen := !seen + k
        end
      done;
      let r, rep = Fabric.Controller.finish t in
      ([ r ], Some rep, None)
    | Plan.Persist, [ cfg ] ->
      let c = fresh_clock t0 in
      let progress ~done_:_ ~total:_ = on_progress c in
      let journal = Filename.concat tmp "campaign.journal" in
      let store = Filename.concat tmp "campaign.store" in
      let r = Campaign.run ~progress ~supervision:(Work.supervision ~journal ~resume:false) cfg in
      let sw = Store.create store in
      Result_store.append_result sw r;
      Store.close sw;
      ([ r ], None, Some store)
    | _ -> invalid_arg "E2e.run_round: workload shape and campaign list disagree"
  in
  let report = Work.report w ?store results in
  assert (String.length report > 0);
  let failed =
    List.fold_left (fun n r -> n + Work.infrastructure_failures r) 0 results
    + match fabric with Some rep -> rep.Fabric.fb_missing | None -> 0
  in
  let resume_ok =
    match (w.Plan.shape, results) with
    | Plan.Persist, [ r ] ->
      (* every trial is served from the complete journal *)
      let journal = Filename.concat tmp "campaign.journal" in
      let again = Campaign.run ~supervision:(Work.supervision ~journal ~resume:true) r.Campaign.cfg in
      Sys.remove journal;
      again.Campaign.records = r.Campaign.records
    | _ -> true
  in
  let wall_ns = Host.now () - t0 in
  (* One render takes a fraction of a millisecond, too little to time alone:
     render again for at least 20 ms, outside [wall_ns], and average. *)
  let report_ns =
    let t_report = Host.now () and renders = ref 0 in
    while !renders < 3 || Host.now () - t_report < 20_000_000 do
      ignore (Work.report w ?store results);
      incr renders
    done;
    float_of_int (Host.now () - t_report) /. float_of_int !renders
  in
  Option.iter Sys.remove store;
  (* the plan this file derives must be the one the program ran *)
  let same_plan = List.map (fun r -> r.Campaign.cfg) results = cfgs in
  let planned = List.fold_left (fun n c -> n + c.Campaign.injections) 0 cfgs in
  ({ clocks = List.rev !clocks; wall_ns; report_ns; results; planned; failed; fabric }, resume_ok && same_plan)

(* A seeded handful of trials per campaign, always including the last one
   (the tail a parallel executor schedules last). *)
let pick_samples ~seed ~round ~campaign (r : Campaign.result) =
  let records = Array.of_list r.Campaign.records in
  let n = Array.length records in
  let rng =
    Ferrite_machine.Rng.create_derived ~seed:(Plan.round_seed seed round) ~index:(campaign + 1)
  in
  let picks = List.sort_uniq compare ((n - 1) :: List.init 5 (fun _ -> Ferrite_machine.Rng.int rng n)) in
  (r.Campaign.cfg, List.map (fun i -> (i, records.(i))) picks)

(* Re-run the sampled trials through the benchmark's own loop, one machine
   per architecture: the program's records must match trial for trial. *)
let samples_agree samples =
  let envs = Hashtbl.create 2 in
  List.for_all
    (fun ((cfg : Campaign.config), picks) ->
      let a =
        match Hashtbl.find_opt envs cfg.Campaign.arch with
        | Some a -> a
        | None ->
          let a = Loop.setup cfg.Campaign.arch in
          Hashtbl.replace envs cfg.Campaign.arch a;
          a
      in
      let env = Loop.env a cfg in
      let specs = Campaign.plan cfg in
      List.for_all
        (fun (i, expected) ->
          let record, _, _, _ = Loop.run_trial ~id:i env a.Loop.machine specs.(i) in
          record = expected)
        picks)
    samples

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** normalised, as [BENCHMARK.json] names them *)
  raw : (string * float * string) list;  (** the same before normalisation *)
  notes : string list;
}

(* The end-to-end figures of a run. Each round comes with the host slowdown
   measured around it (1.0 for raw values): the probes at the boundaries
   before and after it and any taken during it. Every per-round quantity is
   normalised by its own round's slowdown, and the run reports the median
   over rounds. Completion gaps are pooled. *)
let figures rounds =
  let med f = Quant.median (List.map f rounds) in
  let secs ns = float_of_int ns /. 1e9 in
  let gaps =
    List.concat_map
      (fun (r, slow) -> List.concat_map (fun c -> List.map (fun g -> g /. slow) c.Work.gaps) r.clocks)
      rounds
  in
  [
    ("setup_s", med (fun (r, slow) -> secs (List.fold_left (fun n c -> n + Work.setup_ns c) 0 r.clocks) /. slow), "s");
    ("wall_s", med (fun (r, slow) -> secs r.wall_ns /. slow), "s");
    ("inj_per_s", med (fun (r, slow) -> Work.rate r.clocks *. slow), "trials/s");
    ("trial_ms_p50", Quant.median gaps, "ms");
    ("trial_ms_p95", Quant.percentile 95.0 gaps, "ms");
    ("report_s", med (fun (r, slow) -> r.report_ns /. 1e9 /. slow), "s");
  ]

let run ~quick ~tmp (w : Plan.t) ~seed ~seconds =
  let min_rounds = if quick then 1 else 3 in
  let budget = if quick then 0 else int_of_float (seconds *. 1e9) in
  let t_start = Host.now () in
  let rec go round before acc samples digest ok =
    if round >= min_rounds && Host.now () - t_start >= budget then (List.rev acc, samples, digest, ok)
    else begin
      let rd, round_ok = run_round ~quick ~tmp w ~seed ~round in
      let during = Host.drain () in
      let after = Host.boundary () in
      let slow = Host.slowdown_of (before @ during @ after) in
      let samples =
        List.mapi (fun campaign r -> pick_samples ~seed ~round ~campaign r) rd.results @ samples
      in
      let digest = if round = 0 then Some (Work.digest rd.results) else digest in
      (* keep only the timings: holding every round's records would make the
         peak RSS grow with the number of rounds a fast host fits in *)
      go (round + 1) after (({ rd with results = [] }, slow) :: acc) samples digest (ok && round_ok)
    end
  in
  let rounds, samples, digest, rounds_ok = go 0 (Host.boundary ()) [] [] None true in
  (* before the checks, which boot machines of their own *)
  let rss_mib = Work.vm_hwm_mib () in
  let t_checks = Host.now () in
  let agree = samples_agree samples in
  let digest = Option.get digest in
  let committed = Digests.find ~workload:w.Plan.name ~seed ~quick in
  let digest_ok = match committed with Some expected -> expected = digest | None -> true in
  let clocks = List.concat_map (fun (r, _) -> r.clocks) rounds in
  let attempted = List.fold_left (fun n ((r : round), _) -> n + r.planned) 0 rounds in
  let gaps = List.fold_left (fun n c -> n + List.length c.Work.gaps) 0 clocks in
  let probes = Host.probe_ms () in
  {
    correct = rounds_ok && agree && digest_ok;
    attempted;
    failed = List.fold_left (fun n ((r : round), _) -> n + r.failed) 0 rounds;
    metrics = figures rounds @ [ ("rss_peak_mb", rss_mib, "MiB") ];
    raw = figures (List.map (fun (r, _) -> (r, 1.0)) rounds);
    notes =
      [
        Printf.sprintf "rounds %d, trials %d, completion gaps %d (p95 has %d beyond it)" (List.length rounds)
          attempted gaps (gaps / 20);
        Printf.sprintf "host probe mean %.3f ms over %d samples (nominal %.1f ms), IQR %.1f%%"
          (Quant.mean probes) (List.length probes) Host.nominal_ms
          (100.0 *. Quant.iqr_share probes);
        Printf.sprintf "round-0 digest %s (%s)" digest
          (match committed with
          | Some _ -> if digest_ok then "matches the committed digest" else "DIFFERS from the committed digest"
          | None -> "no committed digest for this seed");
        Printf.sprintf "sampled re-execution of %d trials through the bench loop: %s (%.2f s, untimed)"
          (List.fold_left (fun n (_, p) -> n + List.length p) 0 samples)
          (if agree then "records equal" else "RECORDS DIFFER")
          (float_of_int (Host.now () - t_checks) /. 1e9);
        "rss_peak_mb is this process's VmHWM before the checks; forked fleet workers are not included";
      ];
  }
