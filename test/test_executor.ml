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
      ( "collector",
        [
          Alcotest.test_case "stats merge" `Quick test_collector_stats_merge;
          Alcotest.test_case "campaign accounting" `Quick test_campaign_collector_accounting;
        ] );
    ]
