(* Tests for the single-bit transient fault model end to end: every trial
   corrupts exactly the bit its target names, the default configuration is
   byte-identical across executors, records and the per-model breakout carry
   the model's tag, and journal-format compatibility — a v1 (pre-refactor)
   journal must resume cleanly and reproduce the pre-refactor records bit
   for bit. *)

open Ferrite_injection
module Image = Ferrite_kir.Image
module Tracer = Ferrite_trace.Tracer
module Event = Ferrite_trace.Event

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_temp f =
  let path = Filename.temp_file "ferrite-test" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* byte-identity per element: marshaling whole lists is confounded by
   physical sharing (string literals shared across fresh trials, never
   across unmarshaled journal entries), which is invisible to consumers *)
let same_list a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> Marshal.to_string x [] = Marshal.to_string y []) a b

let copy_file src dst =
  let ic = open_in_bin src in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc data;
  close_out oc

let all_kinds = [ Target.Stack; Target.Register; Target.Data; Target.Code ]

let kind_name = function
  | Target.Stack -> "stack"
  | Target.Register -> "register"
  | Target.Data -> "data"
  | Target.Code -> "code"

(* ---------- single-bit semantics ---------- *)

(* The transient is armed once and every later touch — the §3.3
   re-injection after a write, the STEP-3 restore — lands on the same bit:
   each flip-family event of a trial names the record's own target. *)
let test_one_bit_per_trial () =
  List.iter
    (fun arch ->
      List.iter
        (fun kind ->
          let cfg =
            { (Campaign.default ~arch ~kind ~injections:6) with Campaign.seed = 0x51B1L }
          in
          let res = Campaign.run ~tracer:Tracer.default_config cfg in
          check_int (kind_name kind ^ ": one trace per record")
            (List.length res.Campaign.records) (List.length res.Campaign.traces);
          List.iter2
            (fun (r : Outcome.record) (tr : Tracer.trial) ->
              let mem_loc =
                match r.Outcome.r_target with
                | Target.Code_target { addr; bit; _ }
                | Target.Stack_target { addr; bit; _ }
                | Target.Data_target { addr; bit } ->
                  Some (addr, bit)
                | Target.Reg_target _ -> None
              in
              let on_target addr bit = mem_loc = Some (addr, bit) in
              let arms =
                List.fold_left
                  (fun arms (_, ev) ->
                    match ev with
                    | Event.Flip { addr; bit; _ } ->
                      check_bool "flip lands on the target bit" true (on_target addr bit);
                      arms + 1
                    | Event.Reinject { addr; bit } | Event.Restore { addr; bit } ->
                      check_bool "re-inject/restore touch the target bit" true
                        (on_target addr bit);
                      arms
                    | Event.Reg_flip { reg; bit } ->
                      (match r.Outcome.r_target with
                      | Target.Reg_target { name; bit = b; _ } ->
                        check_bool "register flip lands on the target bit" true
                          (reg = name && bit = b)
                      | _ -> Alcotest.fail "register flip in a memory trial");
                      arms + 1
                    | _ -> arms)
                  0 tr.Tracer.tr_events
              in
              check_bool (kind_name kind ^ ": armed at most once") true (arms <= 1);
              (* stack and data errors are armed up front, so a trace that
                 dropped nothing shows the arm *)
              match r.Outcome.r_target with
              | (Target.Stack_target _ | Target.Data_target _) when tr.Tracer.tr_dropped = 0 ->
                check_int (kind_name kind ^ ": armed up front") 1 arms
              | _ -> ())
            res.Campaign.records res.Campaign.traces)
        all_kinds)
    [ Image.Cisc; Image.Risc ]

(* ---------- default campaigns ---------- *)

(* The default configuration must produce byte-identical campaigns —
   records, collector stats, traces, telemetry — whatever the executor.
   Seeds/kind/arch are drawn by qcheck. *)
let prop_default_config_invariance =
  let arb = QCheck.(triple (int_bound 0xFFFF) (int_bound 3) bool) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"legacy config is executor-invariant" ~count:4 arb
       (fun (seed, kind_ix, cisc) ->
         let kind =
           [| Target.Stack; Target.Data; Target.Code; Target.Register |].(kind_ix)
         in
         let arch = if cisc then Image.Cisc else Image.Risc in
         let cfg =
           {
             (Campaign.default ~arch ~kind ~injections:6) with
             Campaign.seed = Int64.of_int (0x1000 + seed);
           }
         in
         let view (r : Campaign.result) =
           Marshal.to_string
             (r.Campaign.records, r.Campaign.collector, r.Campaign.traces,
              Ferrite_trace.Telemetry.with_boots r.Campaign.telemetry 0)
             []
         in
         let run jobs =
           view
             (Campaign.run ~executor:(Executor.of_jobs jobs)
                ~tracer:Ferrite_trace.Tracer.default_config cfg)
         in
         let j1 = run 1 in
         j1 = run 2 && j1 = run 4))

(* Every record names the single-bit model, so the per-model grouping that
   the breakout and the store read is one bucket holding every record. *)
let test_models_run_and_tag_records () =
  List.iter
    (fun kind ->
      let cfg =
        {
          (Campaign.default ~arch:Image.Cisc ~kind ~injections:3) with
          Campaign.seed = 0x90DEL;
        }
      in
      let res = Campaign.run cfg in
      check_int (kind_name kind ^ ": all trials ran") 3 (List.length res.Campaign.records);
      List.iter
        (fun r ->
          check_bool "record carries the model" true
            (r.Outcome.r_model = Fault_model.Single_bit_transient))
        res.Campaign.records;
      match Campaign.group_by_model res with
      | [ (tag, records) ] ->
        Alcotest.(check string) "single bucket, right tag" "single_bit" tag;
        check_int "bucket holds every record" 3 (List.length records)
      | groups -> Alcotest.failf "expected one model bucket, got %d" (List.length groups))
    all_kinds

let test_model_breakout_renders () =
  let cfg =
    {
      (Campaign.default ~arch:Image.Cisc ~kind:Target.Stack ~injections:5) with
      Campaign.seed = 0xB0DEL;
    }
  in
  let text = Ferrite.Report.model_breakout (Campaign.run cfg) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "breakout names the model" true (contains text "single_bit");
  check_bool "breakout carries the Table 5/6 columns" true (contains text "Known Crash")

(* ---------- journal-format compatibility ---------- *)

let golden_cfg ~arch ~kind =
  { (Campaign.default ~arch ~kind ~injections:12) with Campaign.seed = 0x600DL }

let golden_supervision = { Campaign.default_supervision with Campaign.sv_journal = None }

let golden_hash ~sv cfg =
  Journal.plan_hash_of_string (Campaign.plan_fingerprint ~supervision:sv cfg)

(* The goldens under test/golden were written by the v1 injector:
   recovering them exercises the v1 decode path, and resuming them against
   today's engine proves the default config reproduces the v1 records bit
   for bit. The fixtures are copied first because [open_for_append]
   migrates a v1 file to v2 in place. *)
let v1_golden_cases =
  [
    ("golden/v1-p4-stack.journal", Image.Cisc, Target.Stack);
    ("golden/v1-g4-code.journal", Image.Risc, Target.Code);
  ]

let test_v1_recover () =
  List.iter
    (fun (path, arch, kind) ->
      let cfg = golden_cfg ~arch ~kind in
      let sv = { golden_supervision with Campaign.sv_journal = Some path } in
      let rc = Journal.recover ~path ~plan_hash:(golden_hash ~sv cfg) in
      check_int (path ^ ": v1 format detected") 1 rc.Journal.rc_format;
      check_int (path ^ ": all trials recovered") 12 (List.length rc.Journal.rc_entries);
      check_int (path ^ ": no torn tail") 0 rc.Journal.rc_truncated_bytes;
      List.iteri
        (fun i e ->
          check_int "entries in order" i e.Journal.je_index;
          check_bool "upgraded to the single-bit model" true
            (e.Journal.je_record.Outcome.r_model = Fault_model.Single_bit_transient))
        rc.Journal.rc_entries)
    v1_golden_cases

let test_v1_resume_matches_fresh_run () =
  List.iter
    (fun (path, arch, kind) ->
      with_temp (fun tmp ->
          copy_file path tmp;
          let cfg = golden_cfg ~arch ~kind in
          let resumed =
            Campaign.run ~tracer:Tracer.default_config
              ~supervision:
                {
                  golden_supervision with
                  Campaign.sv_journal = Some tmp;
                  sv_resume = true;
                }
              cfg
          in
          (match resumed.Campaign.supervision with
          | Some sup -> check_int (path ^ ": served from journal") 12 sup.Supervisor.sup_resume_skips
          | None -> Alcotest.fail "supervised run lost its report");
          let fresh = Campaign.run ~tracer:Tracer.default_config ~supervision:golden_supervision cfg in
          check_bool (path ^ ": records match the v1 run") true
            (same_list resumed.Campaign.records fresh.Campaign.records);
          check_bool (path ^ ": collector stats match") true
            (resumed.Campaign.collector = fresh.Campaign.collector);
          check_bool (path ^ ": traces match") true
            (same_list resumed.Campaign.traces fresh.Campaign.traces);
          (* the resume migrated the file: a second recovery sees v2 with the
             same entries *)
          let sv = { golden_supervision with Campaign.sv_journal = Some tmp } in
          let rc = Journal.recover ~path:tmp ~plan_hash:(golden_hash ~sv cfg) in
          check_int (path ^ ": migrated to v2") 2 rc.Journal.rc_format;
          check_int (path ^ ": entries preserved") 12 (List.length rc.Journal.rc_entries)))
    v1_golden_cases

let test_v1_interrupted_resume () =
  (* resume a v1 journal holding only a prefix of the campaign: the missing
     trials are re-run by today's engine, and the merged result still equals
     an uninterrupted run *)
  let path, arch, kind = List.hd v1_golden_cases in
  with_temp (fun tmp ->
      copy_file path tmp;
      let cfg = golden_cfg ~arch ~kind in
      let sv = { golden_supervision with Campaign.sv_journal = Some tmp } in
      let rc = Journal.recover ~path:tmp ~plan_hash:(golden_hash ~sv cfg) in
      (* keep the first 5 frames: truncate at the 5th entry's end offset by
         re-writing the file through the migrating writer, then cutting *)
      check_bool "fixture has enough frames" true (List.length rc.Journal.rc_entries > 5);
      let writer, _ = Journal.open_for_append ~path:tmp ~plan_hash:(golden_hash ~sv cfg) in
      Journal.close writer;
      (* now v2: locate the end of frame 5 by recovering and re-framing *)
      let rc2 = Journal.recover ~path:tmp ~plan_hash:(golden_hash ~sv cfg) in
      check_int "migration kept the entries" 12 (List.length rc2.Journal.rc_entries);
      let keep = 5 in
      let tmp2 = tmp ^ ".prefix" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove tmp2 with Sys_error _ -> ())
        (fun () ->
          let writer, _ =
            Journal.open_for_append ~path:tmp2 ~plan_hash:(golden_hash ~sv cfg)
          in
          List.iteri
            (fun i e -> if i < keep then Journal.append writer e)
            rc2.Journal.rc_entries;
          Journal.close writer;
          let resumed =
            Campaign.run ~tracer:Tracer.default_config
              ~supervision:
                {
                  golden_supervision with
                  Campaign.sv_journal = Some tmp2;
                  sv_resume = true;
                }
              cfg
          in
          (match resumed.Campaign.supervision with
          | Some sup -> check_int "prefix served from journal" keep sup.Supervisor.sup_resume_skips
          | None -> Alcotest.fail "supervised run lost its report");
          let fresh =
            Campaign.run ~tracer:Tracer.default_config ~supervision:golden_supervision cfg
          in
          check_bool "merged records equal the uninterrupted run" true
            (same_list resumed.Campaign.records fresh.Campaign.records);
          check_bool "merged traces equal the uninterrupted run" true
            (same_list resumed.Campaign.traces fresh.Campaign.traces)))

let () =
  Alcotest.run "ferrite_fault_model"
    [
      ( "model semantics",
        [ Alcotest.test_case "one bit per trial" `Quick test_one_bit_per_trial ] );
      ( "campaigns",
        [
          Alcotest.test_case "models run and tag records" `Quick test_models_run_and_tag_records;
          prop_default_config_invariance;
          Alcotest.test_case "breakout renders" `Quick test_model_breakout_renders;
        ] );
      ( "journal compat",
        [
          Alcotest.test_case "v1 golden recovers" `Quick test_v1_recover;
          Alcotest.test_case "v1 golden resumes bit-identically" `Quick
            test_v1_resume_matches_fresh_run;
          Alcotest.test_case "v1 prefix resume" `Quick test_v1_interrupted_resume;
        ] );
    ]
