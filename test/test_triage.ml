(* Triage: mechanical bucketing of crashes into the paper's §5 root-cause
   families, and the totality of dump capture/rendering — a crash dump must
   come out of an arbitrarily wild machine without raising. *)

open Ferrite_kernel
open Ferrite_injection
module Image = Ferrite_kir.Image
module Scenario = Ferrite.Scenario

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---------- tags ---------- *)

let test_tags_roundtrip () =
  List.iter
    (fun b -> check_bool (Triage.tag b) true (Triage.of_tag (Triage.tag b) = Some b))
    Triage.all;
  check_bool "unknown tag rejected" true (Triage.of_tag "not-a-bucket" = None);
  let tags = List.map Triage.tag Triage.all in
  check_bool "tags distinct" true (List.length (List.sort_uniq compare tags) = List.length tags)

(* ---------- the §5 case studies bucket as the paper read them ---------- *)

let scenario_bucket name =
  match Scenario.find name with
  | None -> Alcotest.failf "no scenario %s" name
  | Some sc ->
    let r = Scenario.run sc in
    (match Triage.of_record r.Scenario.outcome r.Scenario.dump with
    | Some b -> Triage.tag b
    | None -> "(not a failure)")

let test_section5_families () =
  check_string "Fig. 7 is a stack overwrite (sec. 5.1)" "stack_overwrite"
    (scenario_bucket "fig7");
  check_string "Fig. 13 is bad-pointer propagation (sec. 5.3)" "bad_pointer"
    (scenario_bucket "fig13");
  check_string "Fig. 14 is a decoder resync (sec. 5.4)" "resync" (scenario_bucket "fig14")

(* ---------- outcome-level buckets ---------- *)

let test_of_record_outcomes () =
  (* replay fig7 once to get a real Known_crash record, then rewrite its
     outcome to probe the non-crash paths of [of_record] *)
  let sc = Option.get (Scenario.find "fig7") in
  let r = Scenario.run sc in
  let record = r.Scenario.outcome in
  let with_outcome o = { record with Outcome.r_outcome = o } in
  check_bool "hang is a silent drop" true
    (Triage.of_record (with_outcome Outcome.Hang) None = Some Triage.Silent_drop);
  check_bool "unknown crash is a silent drop" true
    (Triage.of_record (with_outcome Outcome.Unknown_crash) None = Some Triage.Silent_drop);
  check_bool "not manifested is not a failure" true
    (Triage.of_record (with_outcome Outcome.Not_manifested) None = None);
  check_bool "FSV is not triaged as a crash" true
    (Triage.of_record (with_outcome Outcome.Fail_silence_violation) None = None);
  (* the dump-free fallback (journal-resumed trials) still buckets crashes *)
  (match record.Outcome.r_outcome with
  | Outcome.Known_crash _ ->
    check_bool "dump-free fallback buckets the crash" true
      (Triage.of_record record None <> None)
  | o -> Alcotest.failf "fig7 replay did not crash (%s)" (Outcome.outcome_label o))

(* ---------- capture/render totality over wild machines ---------- *)

let wild_faults_cisc =
  [
    System.Cisc_fault (Ferrite_cisc.Exn.Page_fault { addr = 0; write = false; fetch = false });
    System.Cisc_fault Ferrite_cisc.Exn.Invalid_opcode;
    System.Cisc_fault (Ferrite_cisc.Exn.General_protection { addr = None });
    System.Cisc_fault Ferrite_cisc.Exn.Divide_error;
    System.Cisc_fault (Ferrite_cisc.Exn.Software_panic { message = "wild" });
  ]

let wild_faults_risc =
  [
    System.Risc_fault (Ferrite_risc.Exn.Dsi { addr = 0; write = true; protection = false });
    System.Risc_fault (Ferrite_risc.Exn.Isi { addr = 0xDEAD_BEEF });
    System.Risc_fault Ferrite_risc.Exn.Program_illegal;
    System.Risc_fault Ferrite_risc.Exn.Program_trap;
    System.Risc_fault (Ferrite_risc.Exn.Alignment { addr = 3 });
  ]

(* One machine wilder than any injection can make it: every register (PC, SP
   included) forced to an arbitrary word, optionally with the symbol table
   stripped. Capture and render must stay total. *)
let prop_capture_render_total =
  QCheck.Test.make ~name:"capture+render never raise on wild states" ~count:60
    QCheck.(
      triple bool (* arch: cisc/risc *)
        (pair (list_of_size (QCheck.Gen.return 8) (int_bound 0xFFFF_FFFF)) bool
        (* reg values, strip symtab *))
        (int_bound 4) (* fault pick *))
    (fun (cisc, (words, strip), fault_ix) ->
      let arch = if cisc then Image.Cisc else Image.Risc in
      let sys = Boot.boot arch in
      let word i = match List.nth_opt words i with Some w -> w | None -> 0 in
      (match sys.System.cpu with
      | System.Ccpu c ->
        Array.iteri (fun i _ -> c.Ferrite_cisc.Cpu.regs.(i) <- word (i mod 8))
          c.Ferrite_cisc.Cpu.regs;
        c.Ferrite_cisc.Cpu.eip <- word 0;
        c.Ferrite_cisc.Cpu.cr2 <- word 1
      | System.Rcpu c ->
        Array.iteri (fun i _ -> c.Ferrite_risc.Cpu.gpr.(i) <- word (i mod 8))
          c.Ferrite_risc.Cpu.gpr;
        c.Ferrite_risc.Cpu.pc <- word 2;
        c.Ferrite_risc.Cpu.lr <- word 3);
      if strip then Hashtbl.reset sys.System.image.Image.img_symtab;
      let faults = if cisc then wild_faults_cisc else wild_faults_risc in
      let fault = List.nth faults (fault_ix mod List.length faults) in
      let dump = Crash_dump.capture ~events:[ "cycle 1: step" ] sys fault in
      let text = Oops.render_dump dump in
      ignore (Triage.classify dump);
      String.length text > 0)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ferrite_triage"
    [
      ( "buckets",
        [
          Alcotest.test_case "tags roundtrip" `Quick test_tags_roundtrip;
          Alcotest.test_case "sec. 5 case studies" `Quick test_section5_families;
          Alcotest.test_case "outcome-level buckets" `Quick test_of_record_outcomes;
        ] );
      ("totality", [ q prop_capture_render_total ]);
    ]
