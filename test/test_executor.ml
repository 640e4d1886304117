(* Tests for the plan -> execute -> merge decomposition: trial-plan purity,
   executor equivalence (Parallel == Sequential, record for record), the
   pristine-state system cache, and collector stat merging. *)

open Ferrite_kernel
open Ferrite_injection
module Image = Ferrite_kir.Image
module Rng = Ferrite_machine.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- planning ---------- *)

let test_plan_is_pure () =
  let cfg = Campaign.default ~arch:Image.Cisc ~kind:Target.Stack ~injections:25 in
  let p1 = Campaign.plan cfg and p2 = Campaign.plan cfg in
  check_int "one spec per injection" 25 (Array.length p1);
  Array.iteri
    (fun i (s1 : Trial.spec) ->
      let s2 = p2.(i) in
      check_int "indices are positional" i s1.Trial.index;
      check_bool "same target seed" true (s1.Trial.target_seed = s2.Trial.target_seed);
      check_bool "same workload seed" true (s1.Trial.workload_seed = s2.Trial.workload_seed);
      check_bool "same collector seed" true (s1.Trial.collector_seed = s2.Trial.collector_seed);
      check_bool "same workload program" true
        (s1.Trial.workload.Ferrite_workload.Workload.wl_name
        = s2.Trial.workload.Ferrite_workload.Workload.wl_name))
    p1

let test_plan_is_counter_style () =
  (* a trial's seeds must not depend on how many trials precede it: the spec
     at index i of a short plan equals the spec at index i of a long plan *)
  let cfg = Campaign.default ~arch:Image.Cisc ~kind:Target.Data ~injections:30 in
  let long = Campaign.plan cfg in
  let short = Campaign.plan { cfg with Campaign.injections = 7 } in
  Array.iteri
    (fun i (s : Trial.spec) ->
      check_bool "prefix-independent seeds" true
        (s.Trial.target_seed = long.(i).Trial.target_seed
        && s.Trial.workload_seed = long.(i).Trial.workload_seed
        && s.Trial.collector_seed = long.(i).Trial.collector_seed))
    short

let test_plan_seeds_distinct () =
  let cfg = Campaign.default ~arch:Image.Risc ~kind:Target.Code ~injections:200 in
  let specs = Campaign.plan cfg in
  let seeds = Array.to_list (Array.map (fun s -> s.Trial.target_seed) specs) in
  check_int "distinct per-trial streams" 200 (List.length (List.sort_uniq compare seeds))

(* ---------- executor equivalence ---------- *)

let all_kinds = [ Target.Stack; Target.Register; Target.Data; Target.Code ]

let kind_name = function
  | Target.Stack -> "stack"
  | Target.Register -> "register"
  | Target.Data -> "data"
  | Target.Code -> "code"

let test_parallel_matches_sequential () =
  List.iter
    (fun arch ->
      List.iter
        (fun kind ->
          let cfg =
            { (Campaign.default ~arch ~kind ~injections:10) with Campaign.seed = 0xBEE5L }
          in
          let rs = Campaign.run cfg in
          let rp = Campaign.run ~executor:(Executor.Parallel { domains = 4 }) cfg in
          let label =
            Printf.sprintf "%s/%s"
              (match arch with Image.Cisc -> "p4" | Image.Risc -> "g4")
              (kind_name kind)
          in
          check_bool (label ^ ": records identical") true
            (rs.Campaign.records = rp.Campaign.records);
          check_bool (label ^ ": collector stats identical") true
            (rs.Campaign.collector = rp.Campaign.collector))
        all_kinds)
    [ Image.Cisc; Image.Risc ]

let test_parallel_is_deterministic () =
  let cfg =
    { (Campaign.default ~arch:Image.Cisc ~kind:Target.Data ~injections:16) with
      Campaign.seed = 0x5EEDL }
  in
  let executor = Executor.Parallel { domains = 3 } in
  let r1 = Campaign.run ~executor cfg and r2 = Campaign.run ~executor cfg in
  check_bool "two parallel runs agree" true (r1.Campaign.records = r2.Campaign.records);
  check_bool "reboot counts agree" true (r1.Campaign.reboots = r2.Campaign.reboots)

let test_executor_helpers () =
  check_bool "jobs<=1 is sequential" true
    (Executor.of_jobs 1 = Executor.Sequential && Executor.of_jobs 0 = Executor.Sequential);
  let cores = Domain.recommended_domain_count () in
  let expected n =
    let n = min n cores in
    if n <= 1 then Executor.Sequential else Executor.Parallel { domains = n }
  in
  check_bool "jobs>1 is parallel, clamped to cores" true
    (Executor.of_jobs 4 = expected 4);
  check_bool "huge job counts clamp to the core count" true
    (Executor.of_jobs 10_000 = expected 10_000);
  check_bool "negative jobs rejected" true
    (match Executor.of_jobs (-2) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- system cache / logical reboot ---------- *)

let test_restore_equals_fresh_boot () =
  (* run a workload on a booted system, restore, and compare the machine
     against a fresh boot: pc, sp, counters, and a sweep of kernel data *)
  let image = Boot.build_image Image.Cisc in
  let sys = Boot.boot ~image Image.Cisc in
  let snap = System.snapshot sys in
  let fresh = Boot.boot ~image Image.Cisc in
  let rng = Rng.create ~seed:99L in
  let wl = Ferrite_workload.Workload.mix ~ops:8 () in
  let runner =
    Ferrite_workload.Runner.create sys ~ops:(wl.Ferrite_workload.Workload.wl_ops rng)
  in
  let steps = ref 0 in
  while !steps < 200_000 do
    if !steps mod 128 = 0 && Ferrite_workload.Runner.tick runner = Ferrite_workload.Runner.Done
    then steps := 200_000
    else begin
      ignore (System.step sys);
      incr steps
    end
  done;
  check_bool "workload moved the machine" true
    (System.pc sys <> System.pc fresh
    || (System.counters sys).Ferrite_machine.Counters.cycles
       <> (System.counters fresh).Ferrite_machine.Counters.cycles);
  System.restore sys snap;
  check_int "pc restored" (System.pc fresh) (System.pc sys);
  check_int "sp restored" (System.sp fresh) (System.sp sys);
  check_int "cycles restored"
    (System.counters fresh).Ferrite_machine.Counters.cycles
    (System.counters sys).Ferrite_machine.Counters.cycles;
  check_int "jiffies restored" (System.global fresh "jiffies") (System.global sys "jiffies");
  let ds = sys.System.image.Image.img_data in
  let base = ds.Ferrite_kir.Layout.ds_base in
  for i = 0 to (ds.Ferrite_kir.Layout.ds_size / 4) - 1 do
    let addr = base + (4 * i) in
    if System.peek32 sys addr <> System.peek32 fresh addr then
      Alcotest.failf "data word %08x differs after restore" addr
  done

let test_restore_cross_arch_rejected () =
  let p4 = Boot.boot Image.Cisc and g4 = Boot.boot Image.Risc in
  let snap = System.snapshot g4 in
  match System.restore p4 snap with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "cross-architecture restore must be rejected"

(* ---------- one kernel, one boot: the shared post-boot machine ---------- *)

let arch_name = function Image.Cisc -> "p4" | Image.Risc -> "g4"

let cfg_of ?(seed = 0x5A4EL) arch kind injections =
  { (Campaign.default ~arch ~kind ~injections) with Campaign.seed = seed }

(* Everything but the diagnostics [cache]: records, traces, dumps, collector,
   telemetry (boots included) and the reboot count. *)
let check_same label (a : Campaign.result) (b : Campaign.result) =
  check_bool (label ^ ": records") true (a.Campaign.records = b.Campaign.records);
  check_bool (label ^ ": traces") true (a.Campaign.traces = b.Campaign.traces);
  check_bool (label ^ ": dumps") true (a.Campaign.dumps = b.Campaign.dumps);
  check_bool (label ^ ": collector") true (a.Campaign.collector = b.Campaign.collector);
  check_bool (label ^ ": telemetry") true (a.Campaign.telemetry = b.Campaign.telemetry);
  check_int (label ^ ": reboots") a.Campaign.reboots b.Campaign.reboots

let tracer = Ferrite_trace.Tracer.default_config

(* A machine built from the snapshot runs a campaign exactly as the booted
   one does, with the fast paths on and off: the run on the inputs' spare
   (the machine Boot.boot made) against one on the snapshot alone. The code
   campaign's profile leaves the spare warm, so the built machine runs the
   same profile first: both then start in the same warm state. *)
let test_of_snapshot_equals_boot () =
  List.iter
    (fun (arch, kind) ->
      List.iter
        (fun fast ->
          Ferrite_machine.Memory.set_fast_paths_default fast;
          Fun.protect
            ~finally:(fun () -> Ferrite_machine.Memory.set_fast_paths_default true)
            (fun () ->
              let cfg = cfg_of arch kind 40 in
              let inputs = Campaign.build_inputs arch in
              let booted = Campaign.run ~tracer ~inputs cfg in
              let env = Campaign.environment_with inputs cfg in
              let ms = Campaign.machines inputs in
              Trial.drop_spare ms;
              let n0 = Boot.boots () in
              if kind = Target.Code then
                Trial.with_machine ~warms:true ms (fun sys ->
                    ignore (Ferrite_workload.Profiler.profile sys));
              let out =
                Executor.run ~trace:tracer Executor.Sequential ~machines:ms env (Campaign.plan cfg)
              in
              check_int "no boot code run" 0 (Boot.boots () - n0);
              let label = Printf.sprintf "%s %s fast=%b" (arch_name arch) (kind_name kind) fast in
              check_same label booted (Campaign.of_outcome cfg ~hot:env.Trial.env_hot out);
              (* the built machine keeps the snapshot's page generations, so
                 a rewound code page revalidates its blocks as on the booted
                 machine, and both build the same blocks *)
              check_int (label ^ ": blocks built")
                booted.Campaign.cache.Ferrite_machine.Cache_stats.cs_sb_blocks
                out.Trial_table.cache.Ferrite_machine.Cache_stats.cs_sb_blocks))
        [ true; false ])
    [ (Image.Cisc, Target.Code); (Image.Risc, Target.Stack) ]

(* Only a code campaign reads the hot set, so only it profiles: the other
   kinds on fresh inputs leave the profile unforced and report no hot set.
   The code campaign's hot set, profiled on the spare those campaigns ran
   on, is the one a freshly booted machine yields, and a second code
   campaign on the inputs reuses it. *)
let test_only_code_profiles () =
  let module Profiler = Ferrite_workload.Profiler in
  List.iter
    (fun arch ->
      let inputs = Campaign.build_inputs arch in
      let p0 = Campaign.profiles_run () in
      List.iter
        (fun kind ->
          let label = Printf.sprintf "%s %s" (arch_name arch) (kind_name kind) in
          let r = Campaign.run ~inputs (cfg_of arch kind 4) in
          check_int (label ^ ": no profile run") 0 (Campaign.profiles_run () - p0);
          check_bool (label ^ ": no hot set") true (r.Campaign.hot_profile = []))
        [ Target.Data; Target.Stack; Target.Register ];
      let code = Campaign.run ~inputs (cfg_of arch Target.Code 4) in
      ignore (Campaign.run ~inputs (cfg_of ~seed:0x77L arch Target.Code 4));
      let label = arch_name arch ^ " code" in
      check_int (label ^ ": one profile run") 1 (Campaign.profiles_run () - p0);
      let samples = Profiler.profile (Boot.boot arch) in
      let hot = Profiler.hot_functions ~coverage:0.95 samples in
      let fresh =
        List.filter_map
          (fun (s : Profiler.sample) ->
            if List.mem s.Profiler.fn_name hot then Some (s.Profiler.fn_name, s.Profiler.fraction)
            else None)
          samples
      in
      check_bool (label ^ ": a fresh boot's hot set") true (code.Campaign.hot_profile = fresh))
    [ Image.Cisc; Image.Risc ]

(* Code flips leave blocks built from flipped bytes in the shared machine's
   caches; the data campaign that takes it next must not see them. *)
let test_code_then_data () =
  List.iter
    (fun arch ->
      let inputs = Campaign.build_inputs arch in
      let n0 = Boot.boots () in
      List.iter
        (fun kind ->
          let cfg = cfg_of arch kind 30 in
          check_same
            (Printf.sprintf "%s %s" (arch_name arch) (kind_name kind))
            (Campaign.run ~tracer cfg)
            (Campaign.run ~tracer ~inputs cfg))
        [ Target.Code; Target.Data ];
      (* the two standalone runs booted once each; the shared ones never *)
      check_int "standalone runs boot once each" 2 (Boot.boots () - n0))
    [ Image.Cisc; Image.Risc ]

(* Each campaign's [cache] counts from when it took the machine: the second
   campaign on one inputs reports the blocks and misses it caused, not the
   spare's lifetime totals. *)
let test_second_campaign_own_stats () =
  let inputs = Campaign.build_inputs Image.Cisc in
  let lifetime () =
    Trial.with_machine (Campaign.machines inputs) Ferrite_kernel.System.cache_stats
  in
  let first = Campaign.run ~inputs (cfg_of Image.Cisc Target.Stack 20) in
  let mid = lifetime () in
  let second = Campaign.run ~inputs (cfg_of Image.Cisc Target.Data 20) in
  let after = lifetime () in
  let open Ferrite_machine.Cache_stats in
  let own = delta ~before:mid ~after in
  check_bool "the first campaign built blocks" true (first.Campaign.cache.cs_sb_blocks > 0);
  check_int "second: its own blocks" own.cs_sb_blocks second.Campaign.cache.cs_sb_blocks;
  check_int "second: its own decode misses" own.cs_decode_misses
    second.Campaign.cache.cs_decode_misses;
  check_bool "fewer than the machine's lifetime" true
    (second.Campaign.cache.cs_sb_blocks < after.cs_sb_blocks);
  check_int "pre-warmed by the first taker only" 0 second.Campaign.cache.cs_prewarmed

(* A contained harness failure drops the machine: it is never handed back,
   and the next campaign on the inputs still equals a standalone run. *)
let test_contained_failure_drops_machine () =
  let inputs = Campaign.build_inputs Image.Cisc in
  let ms = Campaign.machines inputs in
  let spare () = Trial.with_machine ms Fun.id in
  let cfg = cfg_of Image.Cisc Target.Stack 12 in
  let s0 = spare () in
  ignore (Campaign.run ~inputs cfg);
  check_bool "a clean campaign hands the spare back" true (spare () == s0);
  let chaos = { Supervisor.no_chaos with Supervisor.ch_raise = [ (4, 1) ] } in
  let supervision = { Campaign.default_supervision with Campaign.sv_chaos = chaos } in
  let r = Campaign.run ~supervision ~inputs cfg in
  check_bool "the retried trial ran" true
    (match r.Campaign.supervision with
    | Some s -> s.Supervisor.sup_retries = 1
    | None -> false);
  check_bool "the failed campaign's machine is gone" true (spare () != s0);
  let next = cfg_of ~seed:0x77L Image.Cisc Target.Data 16 in
  check_same "next campaign" (Campaign.run ~tracer next) (Campaign.run ~tracer ~inputs next)

(* Two campaigns on one inputs from two domains: one takes the spare, the
   other builds its machine from the snapshot, and both equal sequential
   runs. *)
let test_two_domains_share_inputs () =
  let inputs = Campaign.build_inputs Image.Risc in
  let a = cfg_of Image.Risc Target.Stack 24 and b = cfg_of Image.Risc Target.Code 24 in
  let run cfg () = Campaign.run ~tracer ~inputs cfg in
  let da = Domain.spawn (run a) and db = Domain.spawn (run b) in
  let ra = Domain.join da and rb = Domain.join db in
  check_same "stack" (Campaign.run ~tracer a) ra;
  check_same "code" (Campaign.run ~tracer b) rb

(* ---------- collector stats ---------- *)

let test_collector_stats_merge () =
  let c1 = Collector.create ~loss_rate:1.0 ~seed:1L () in
  let c2 = Collector.create ~loss_rate:0.0 ~seed:2L () in
  let info =
    {
      Outcome.ci_cause = Crash_cause.P4 Crash_cause.Bad_paging;
      ci_latency = 1;
      ci_pc = 0;
      ci_function = None;
    }
  in
  for _ = 1 to 5 do ignore (Collector.send c1 info) done;
  for _ = 1 to 3 do ignore (Collector.send c2 info) done;
  let m = Collector.merge_stats (Collector.stats c1) (Collector.stats c2) in
  check_int "received summed" 3 m.Collector.st_received;
  check_int "lost summed" 5 m.Collector.st_lost;
  check_bool "zero is the unit" true
    (Collector.merge_stats Collector.zero_stats (Collector.stats c1) = Collector.stats c1)

let test_campaign_collector_accounting () =
  (* delivered + lost must equal the number of crashes that produced a dump:
     every Known_crash was delivered; each loss surfaces as Unknown_crash *)
  let cfg = Campaign.default ~arch:Image.Cisc ~kind:Target.Code ~injections:40 in
  let r = Campaign.run cfg in
  let s = Campaign.summarize r in
  check_int "known crashes were delivered dumps" s.Campaign.known_crash
    r.Campaign.collector.Collector.st_received;
  check_bool "losses bounded by hang/unknown" true
    (r.Campaign.collector.Collector.st_lost <= s.Campaign.hang_or_unknown)

let () =
  Alcotest.run "ferrite_executor"
    [
      ( "plan",
        [
          Alcotest.test_case "pure" `Quick test_plan_is_pure;
          Alcotest.test_case "counter-style" `Quick test_plan_is_counter_style;
          Alcotest.test_case "distinct seeds" `Quick test_plan_seeds_distinct;
        ] );
      ( "executors",
        [
          Alcotest.test_case "parallel == sequential" `Quick test_parallel_matches_sequential;
          Alcotest.test_case "parallel deterministic" `Quick test_parallel_is_deterministic;
          Alcotest.test_case "helpers" `Quick test_executor_helpers;
        ] );
      ( "system cache",
        [
          Alcotest.test_case "restore == fresh boot" `Quick test_restore_equals_fresh_boot;
          Alcotest.test_case "cross-arch rejected" `Quick test_restore_cross_arch_rejected;
        ] );
      ( "shared machine",
        [
          Alcotest.test_case "of_snapshot == boot" `Quick test_of_snapshot_equals_boot;
          Alcotest.test_case "only code campaigns profile" `Quick test_only_code_profiles;
          Alcotest.test_case "code then data" `Quick test_code_then_data;
          Alcotest.test_case "second campaign's own stats" `Quick test_second_campaign_own_stats;
          Alcotest.test_case "contained failure drops machine" `Quick
            test_contained_failure_drops_machine;
          Alcotest.test_case "two domains share inputs" `Quick test_two_domains_share_inputs;
        ] );
      ( "collector",
        [
          Alcotest.test_case "stats merge" `Quick test_collector_stats_merge;
          Alcotest.test_case "campaign accounting" `Quick test_campaign_collector_accounting;
        ] );
    ]
