(* Tests for the core facade: the transcribed paper data, suite scaling,
   report rendering and the shape-check machinery. *)

module Image = Ferrite_kir.Image
module Target = Ferrite_injection.Target
module Campaign = Ferrite_injection.Campaign

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---------- paper data ---------- *)

let test_paper_counts () =
  (* Tables 5/6 column 1 *)
  check_int "P4 stack" 10143 Ferrite.Paper.p4_stack.Ferrite.Paper.injected;
  check_int "P4 data" 46000 Ferrite.Paper.p4_data.Ferrite.Paper.injected;
  check_int "G4 code" 2188 Ferrite.Paper.g4_code.Ferrite.Paper.injected;
  let total =
    List.fold_left (fun a (r : Ferrite.Paper.campaign_row) -> a + r.Ferrite.Paper.injected) 0
      Ferrite.Paper.[ p4_stack; p4_sysreg; p4_data; p4_code; g4_stack; g4_sysreg; g4_data; g4_code ]
  in
  check_bool "over 115,000 injections, as the abstract says" true (total > 115_000)

let test_paper_distributions_sum () =
  List.iter
    (fun (name, dist) ->
      let s = List.fold_left (fun a (_, p) -> a +. p) 0.0 dist in
      check_bool (name ^ " sums to ~100%") true (abs_float (s -. 100.0) < 2.5))
    [
      ("fig4", Ferrite.Paper.fig4_p4_overall);
      ("fig5", Ferrite.Paper.fig5_g4_overall);
      ("fig6 P4", Ferrite.Paper.fig6_p4_stack);
      ("fig6 G4", Ferrite.Paper.fig6_g4_stack);
      ("fig10 P4", Ferrite.Paper.fig10_p4_sysreg);
      ("fig10 G4", Ferrite.Paper.fig10_g4_sysreg);
      ("fig11 P4", Ferrite.Paper.fig11_p4_code);
      ("fig11 G4", Ferrite.Paper.fig11_g4_code);
      ("fig12 P4", Ferrite.Paper.fig12_p4_data);
      ("fig12 G4", Ferrite.Paper.fig12_g4_data);
    ]

let test_paper_labels_match_taxonomy () =
  (* every label in the paper data must be a label our classifier can emit *)
  let p4 = Ferrite_injection.Crash_cause.all_labels Image.Cisc in
  let g4 = Ferrite_injection.Crash_cause.all_labels Image.Risc in
  List.iter
    (fun (l, _) -> check_bool ("P4 label " ^ l) true (List.mem l p4))
    (Ferrite.Paper.fig4_p4_overall @ Ferrite.Paper.fig6_p4_stack @ Ferrite.Paper.fig11_p4_code);
  List.iter
    (fun (l, _) -> check_bool ("G4 label " ^ l) true (List.mem l g4))
    (Ferrite.Paper.fig5_g4_overall @ Ferrite.Paper.fig6_g4_stack @ Ferrite.Paper.fig11_g4_code)

(* ---------- suite scaling ---------- *)

let test_suite_scaling () =
  let p = Ferrite.Suite.paper_counts Image.Cisc in
  check_int "paper stack count" 10143 p.Ferrite.Suite.stack_n;
  let s = Ferrite.Suite.scaled Image.Cisc 0.01 in
  check_int "1% of stack" 101 s.Ferrite.Suite.stack_n;
  check_int "floor of 50" 50 (Ferrite.Suite.scaled Image.Cisc 0.0001).Ferrite.Suite.stack_n

(* ---------- static tables ---------- *)

let test_static_tables_render () =
  let t1 = Ferrite.Report.table1 () in
  check_bool "table1 mentions both parts" true
    (contains t1 "Pentium" && contains t1 "MPC 7455");
  let t2 = Ferrite.Report.table2 () in
  check_bool "table2 has FSV" true (contains t2 "Fail Silence Violation");
  let t3 = Ferrite.Report.table3 () in
  check_bool "table3 has NULL Pointer" true (contains t3 "NULL Pointer");
  let t4 = Ferrite.Report.table4 () in
  check_bool "table4 has Stack Overflow" true (contains t4 "Stack Overflow")

(* ---------- end-to-end tiny suites ---------- *)

let tiny_scale = { Ferrite.Suite.stack_n = 60; sysreg_n = 50; data_n = 120; code_n = 50 }

let p4_suite = lazy (Ferrite.Suite.run ~seed:0xAAL ~scale:tiny_scale Image.Cisc)
let g4_suite = lazy (Ferrite.Suite.run ~seed:0xAAL ~scale:tiny_scale Image.Risc)

let test_suite_runs () =
  let p4 = Lazy.force p4_suite in
  check_int "total injections" (60 + 50 + 120 + 50) (Ferrite.Suite.total_injections p4);
  (* only the code campaign reads, and so profiles, the hot set *)
  check_bool "profile captured" true (p4.Ferrite.Suite.code.Campaign.hot_profile <> []);
  List.iter
    (fun (label, (r : Campaign.result)) ->
      check_bool (label ^ ": no profile") true (r.Campaign.hot_profile = []))
    Ferrite.Suite.[ ("stack", p4.stack); ("sysreg", p4.sysreg); ("data", p4.data) ]

(* Sharing one kernel's inputs across a suite's campaigns is invisible: each
   campaign equals a standalone run of its own config, which derives its
   own inputs and boots its own machine. The suite's campaigns take turns
   on one booted machine, so equal telemetry (tl_boots included) shows
   that each counts its turn as the one boot a standalone run makes. *)
let test_suite_equals_standalone_runs suite () =
  let s = Lazy.force suite in
  List.iter
    (fun (label, (r : Campaign.result)) ->
      let alone = Campaign.run r.Campaign.cfg in
      check_bool (label ^ ": records") true (alone.Campaign.records = r.Campaign.records);
      check_bool (label ^ ": traces") true (alone.Campaign.traces = r.Campaign.traces);
      check_bool (label ^ ": dumps") true (alone.Campaign.dumps = r.Campaign.dumps);
      check_bool (label ^ ": telemetry") true (alone.Campaign.telemetry = r.Campaign.telemetry);
      check_bool (label ^ ": hot profile") true
        (alone.Campaign.hot_profile = r.Campaign.hot_profile))
    Ferrite.Suite.
      [ ("stack", s.stack); ("sysreg", s.sysreg); ("data", s.data); ("code", s.code) ]

(* Each Suite.run builds its inputs exactly once, and a second call builds
   them again: shared within a run, never memoised across runs. The kernel
   boots once per build: the profile and the four campaigns share the
   booted machine. *)
let test_suite_builds_inputs_once () =
  let scale = { Ferrite.Suite.stack_n = 2; sysreg_n = 2; data_n = 2; code_n = 2 } in
  let run () = Ferrite.Suite.run ~seed:0xBBL ~scale Image.Risc in
  let n0 = Campaign.inputs_built () and b0 = Ferrite_kernel.Boot.boots () in
  let first = run () in
  check_int "one build for four campaigns" 1 (Campaign.inputs_built () - n0);
  check_int "one boot for four campaigns" 1 (Ferrite_kernel.Boot.boots () - b0);
  let second = run () in
  check_int "a second run builds again" 2 (Campaign.inputs_built () - n0);
  check_int "and boots again" 2 (Ferrite_kernel.Boot.boots () - b0);
  check_bool "and matches the first" true
    (List.for_all2
       (fun (a : Campaign.result) (b : Campaign.result) ->
         a.Campaign.records = b.Campaign.records && a.Campaign.hot_profile = b.Campaign.hot_profile)
       Ferrite.Suite.[ first.stack; first.sysreg; first.data; first.code ]
       Ferrite.Suite.[ second.stack; second.sysreg; second.data; second.code ])

let test_inputs_must_match_config () =
  let inputs = Campaign.build_inputs Image.Risc in
  let cfg = Campaign.default ~arch:Image.Cisc ~kind:Target.Stack ~injections:1 in
  check_bool "another arch's inputs are refused" true
    (match Campaign.run ~inputs cfg with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let cfg =
    { (Campaign.default ~arch:Image.Risc ~kind:Target.Stack ~injections:1) with
      Campaign.variant = { Ferrite_kernel.Boot.standard with Ferrite_kernel.Boot.v_assertions = true } }
  in
  check_bool "another variant's inputs are refused" true
    (match Campaign.run ~inputs cfg with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_tables_5_6_render () =
  let p4 = Lazy.force p4_suite and g4 = Lazy.force g4_suite in
  let t5 = Ferrite.Report.table5 p4 in
  check_bool "has ferrite and paper rows" true
    (contains t5 "[ferrite]" && contains t5 "[paper]");
  check_bool "has register N/A" true (contains t5 "N/A");
  let t6 = Ferrite.Report.table6 g4 in
  check_bool "references 46000 (paper data row)" true (contains t6 "46000")

let test_figures_render () =
  let p4 = Lazy.force p4_suite and g4 = Lazy.force g4_suite in
  check_bool "fig4" true (contains (Ferrite.Report.fig4 p4) "Figure 4");
  check_bool "fig5" true (contains (Ferrite.Report.fig5 g4) "Figure 5");
  check_bool "fig6" true (contains (Ferrite.Report.fig6 ~p4 ~g4) "Stack Injection");
  check_bool "fig16 has buckets" true (contains (Ferrite.Report.fig16 ~p4 ~g4) "3k-10k")

let test_shape_checks_structure () =
  let p4 = Lazy.force p4_suite and g4 = Lazy.force g4_suite in
  let checks = Ferrite.Report.shape_checks ~p4 ~g4 in
  check_int "fourteen checks" 14 (List.length checks);
  List.iter
    (fun c ->
      check_bool (c.Ferrite.Report.ck_id ^ " has detail") true
        (String.length c.Ferrite.Report.ck_detail > 0))
    checks;
  (* the structural invariants that hold even at tiny scale *)
  let find id = List.find (fun c -> c.Ferrite.Report.ck_id = id) checks in
  check_bool "g4-stack-overflow" true (find "g4-stack-overflow").Ferrite.Report.ck_pass;
  check_bool "rendering works" true
    (contains (Ferrite.Report.render_checks checks) "checks hold")

let test_cause_distribution_ordering () =
  let p4 = Lazy.force p4_suite in
  let dist = Ferrite.Report.cause_distribution p4.Ferrite.Suite.stack in
  check_bool "descending counts" true
    (let rec ok = function
       | (_, a) :: ((_, b) :: _ as rest) -> a >= b && ok rest
       | _ -> true
     in
     ok dist);
  check_bool "no zero entries" true (List.for_all (fun (_, n) -> n > 0) dist)

let () =
  Alcotest.run "ferrite_core"
    [
      ( "paper data",
        [
          Alcotest.test_case "campaign counts" `Quick test_paper_counts;
          Alcotest.test_case "distributions sum" `Quick test_paper_distributions_sum;
          Alcotest.test_case "labels match taxonomy" `Quick test_paper_labels_match_taxonomy;
        ] );
      ( "suite",
        [
          Alcotest.test_case "scaling" `Quick test_suite_scaling;
          Alcotest.test_case "tiny suite runs" `Quick test_suite_runs;
          Alcotest.test_case "p4 suite equals standalone campaigns" `Quick
            (test_suite_equals_standalone_runs p4_suite);
          Alcotest.test_case "g4 suite equals standalone campaigns" `Quick
            (test_suite_equals_standalone_runs g4_suite);
          Alcotest.test_case "suite builds its inputs once" `Quick test_suite_builds_inputs_once;
          Alcotest.test_case "inputs must match the config" `Quick test_inputs_must_match_config;
        ] );
      ( "report",
        [
          Alcotest.test_case "static tables" `Quick test_static_tables_render;
          Alcotest.test_case "tables 5/6" `Quick test_tables_5_6_render;
          Alcotest.test_case "figures" `Quick test_figures_render;
          Alcotest.test_case "shape checks" `Quick test_shape_checks_structure;
          Alcotest.test_case "cause ordering" `Quick test_cause_distribution_ordering;
        ] );
    ]
