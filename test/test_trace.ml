(* Tests for the trace library: ring-buffer flight-recorder semantics,
   telemetry counting/merging, JSONL export, the golden scenario timelines
   (byte-exact against committed files) and executor independence of traces
   and telemetry. *)

open Ferrite_trace
module Image = Ferrite_kir.Image
module Campaign = Ferrite_injection.Campaign
module Executor = Ferrite_injection.Executor
module Target = Ferrite_injection.Target

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let stamp i =
  { Event.s_cycles = 100 * i; s_instructions = 10 * i; s_pc = 0xC0100000 + i; s_function = None }

let flip i = Event.Flip { space = Event.Data_space; addr = 0xC0400000 + i; bit = i mod 32 }

(* ---------- ring buffer ---------- *)

let test_ring_keeps_most_recent () =
  let t = Tracer.create { Tracer.trace_capacity = 4 } in
  for i = 0 to 9 do
    Tracer.record t (stamp i) (flip i)
  done;
  check_int "recorded" 10 (Tracer.recorded t);
  check_int "dropped" 6 (Tracer.dropped t);
  let events = Tracer.events t in
  check_int "retained" 4 (List.length events);
  List.iteri
    (fun k (s, _) -> check_int "oldest-first suffix" (100 * (6 + k)) s.Event.s_cycles)
    events

let test_ring_under_capacity () =
  let t = Tracer.create { Tracer.trace_capacity = 8 } in
  for i = 0 to 2 do
    Tracer.record t (stamp i) (flip i)
  done;
  check_int "no drops" 0 (Tracer.dropped t);
  check_int "all retained" 3 (List.length (Tracer.events t))

let test_telemetry_only_keeps_counters () =
  let t = Tracer.create Tracer.telemetry_only in
  Tracer.record t (stamp 0) (Event.Trial_begin { trial = 0; target = "t" });
  Tracer.record t (stamp 1) (flip 1);
  Tracer.record t (stamp 2) (Event.Reinject { addr = 0; bit = 1 });
  Tracer.record t (stamp 3) (Event.Activated { via = "data watchpoint" });
  check_int "no events retained" 0 (List.length (Tracer.events t));
  let tl = Tracer.telemetry t in
  check_int "trials" 1 tl.Telemetry.tl_trials;
  check_int "flips include reinjections" 2 tl.Telemetry.tl_flips;
  check_int "reinjections" 1 tl.Telemetry.tl_reinjections;
  check_int "activations" 1 tl.Telemetry.tl_activations;
  check_int "events counted" 4 tl.Telemetry.tl_events

(* [record_with] stamps only events a tracer keeps, and counts them all. *)
let test_record_with_stamps_kept_events () =
  let stamped = ref 0 in
  let next () =
    incr stamped;
    stamp !stamped
  in
  let none = Tracer.create Tracer.telemetry_only in
  Tracer.record_with none next (flip 0);
  Tracer.record_with none next (Event.Activated { via = "data watchpoint" });
  check_int "telemetry-only: no stamp built" 0 !stamped;
  check_int "telemetry-only: both counted" 2 (Tracer.telemetry none).Telemetry.tl_events;
  let kept = Tracer.create { Tracer.trace_capacity = 2 } in
  Tracer.record_with kept next (flip 0);
  Tracer.record_with kept next (flip 1);
  check_int "one stamp per kept event" 2 !stamped;
  check_bool "the stamps it built" true
    (List.map (fun (s, _) -> s.Event.s_cycles) (Tracer.events kept) = [ 100; 200 ])

let test_negative_capacity_rejected () =
  match Tracer.create { Tracer.trace_capacity = -1 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative capacity must be rejected"

(* ---------- telemetry ---------- *)

let test_counting_semantics () =
  let t = Tracer.create Tracer.telemetry_only in
  Tracer.record t (stamp 0) (Event.Bp_hit { addr = 0; stray = true });
  Tracer.record t (stamp 1) (Event.Bp_hit { addr = 0; stray = false });
  Tracer.record t (stamp 2) (Event.Collector_send { delivered = true });
  Tracer.record t (stamp 3) (Event.Collector_send { delivered = false });
  Tracer.record t (stamp 4) (Event.Watchdog_expired { steps = 100 });
  Tracer.record t (stamp 5) (Event.Exn_raised { fault = "#UD" });
  let tl = Tracer.telemetry t in
  check_int "only stray bp hits counted" 1 tl.Telemetry.tl_stray_breakpoints;
  check_int "dumps sent" 1 tl.Telemetry.tl_dumps_sent;
  check_int "dumps lost" 1 tl.Telemetry.tl_dumps_lost;
  check_int "watchdogs" 1 tl.Telemetry.tl_watchdog_expiries;
  check_int "exceptions" 1 tl.Telemetry.tl_exceptions

let test_merge_is_componentwise_sum () =
  let a = { Telemetry.zero with Telemetry.tl_trials = 2; tl_flips = 5; tl_dumps_lost = 1 } in
  let b = { Telemetry.zero with Telemetry.tl_trials = 3; tl_flips = 7; tl_boots = 2 } in
  let m = Telemetry.merge a b in
  check_int "trials" 5 m.Telemetry.tl_trials;
  check_int "flips" 12 m.Telemetry.tl_flips;
  check_int "dumps lost" 1 m.Telemetry.tl_dumps_lost;
  check_int "boots" 2 m.Telemetry.tl_boots;
  check_bool "zero is identity" true (Telemetry.merge Telemetry.zero a = a)

(* ---------- jsonl ---------- *)

let test_jsonl_line_shape () =
  let s =
    { Event.s_cycles = 42; s_instructions = 7; s_pc = 0xC0100B36; s_function = Some "getblk" }
  in
  let line =
    Jsonl.event_line ~trial:3 (s, Event.Flip { space = Event.Code_space; addr = 0xC0100B36; bit = 8 })
  in
  check_string "flip line"
    "{\"trial\":3,\"cycles\":42,\"instructions\":7,\"pc\":\"c0100b36\",\"fn\":\"getblk\",\"event\":\"flip\",\"space\":\"code\",\"addr\":\"c0100b36\",\"bit\":8}"
    line

let test_jsonl_escaping () =
  let s = { Event.s_cycles = 0; s_instructions = 0; s_pc = 0; s_function = None } in
  let line = Jsonl.event_line ~trial:0 (s, Event.Activated { via = "a\"b\\c\nd" }) in
  check_bool "quote escaped" true
    (let re = {|"via":"a\"b\\c\nd"|} in
     let rec contains i =
       if i + String.length re > String.length line then false
       else if String.sub line i (String.length re) = re then true
       else contains (i + 1)
     in
     contains 0);
  check_bool "fn null" true
    (let re = {|"fn":null|} in
     let rec contains i =
       if i + String.length re > String.length line then false
       else if String.sub line i (String.length re) = re then true
       else contains (i + 1)
     in
     contains 0)

(* ---------- golden scenario timelines ---------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let check_golden name rendered =
  let path = Filename.concat "golden" (name ^ ".trace") in
  if not (Sys.file_exists path) then
    Alcotest.failf "golden file %s missing (regenerate with: ferrite trace %s)" path name
  else check_string (name ^ " timeline is byte-identical to the golden file") (read_file path)
         rendered

(* One case per scenario replay (Figs. 7/13/14), named after it. *)
let golden_cases =
  List.map
    (fun sc ->
      let name = sc.Ferrite.Scenario.sc_name in
      Alcotest.test_case name `Quick (fun () ->
          check_golden name (Ferrite.Scenario.render (Ferrite.Scenario.run sc))))
    Ferrite.Scenario.all

(* ---------- campaign traces across executors ---------- *)

let test_campaign_traces_executor_independent () =
  let cfg =
    {
      (Campaign.default ~arch:Image.Cisc ~kind:Target.Data ~injections:12) with
      Campaign.seed = 0xBEEFL;
    }
  in
  let tracer = { Tracer.trace_capacity = 256 } in
  let seq = Campaign.run ~executor:Executor.Sequential ~tracer cfg in
  let par = Campaign.run ~executor:(Executor.Parallel { domains = 4 }) ~tracer cfg in
  check_string "rendered trials identical"
    (Printer.render_trials seq.Campaign.traces)
    (Printer.render_trials par.Campaign.traces);
  check_string "jsonl identical"
    (String.concat "\n" (List.concat_map Jsonl.trial_lines seq.Campaign.traces))
    (String.concat "\n" (List.concat_map Jsonl.trial_lines par.Campaign.traces));
  (* telemetry: identical except tl_boots, which is per-worker *)
  check_bool "telemetry identical modulo boots" true
    (Telemetry.with_boots seq.Campaign.telemetry 0
    = Telemetry.with_boots par.Campaign.telemetry 0);
  (* the telemetry invariants documented in Telemetry's interface *)
  let tl = seq.Campaign.telemetry in
  check_int "every trial begins" cfg.Campaign.injections tl.Telemetry.tl_trials;
  check_bool "activations bounded" true
    (tl.Telemetry.tl_activations <= tl.Telemetry.tl_trials);
  check_bool "flips cover reinjections" true
    (tl.Telemetry.tl_flips >= tl.Telemetry.tl_reinjections)

let () =
  Alcotest.run "ferrite_trace"
    [
      ( "ring",
        [
          Alcotest.test_case "keeps most recent" `Quick test_ring_keeps_most_recent;
          Alcotest.test_case "under capacity" `Quick test_ring_under_capacity;
          Alcotest.test_case "telemetry-only" `Quick test_telemetry_only_keeps_counters;
          Alcotest.test_case "negative capacity" `Quick test_negative_capacity_rejected;
          Alcotest.test_case "record_with stamps kept events" `Quick
            test_record_with_stamps_kept_events;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "counting semantics" `Quick test_counting_semantics;
          Alcotest.test_case "merge" `Quick test_merge_is_componentwise_sum;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "line shape" `Quick test_jsonl_line_shape;
          Alcotest.test_case "escaping" `Quick test_jsonl_escaping;
        ] );
      ("golden", golden_cases);
      ( "campaign",
        [
          Alcotest.test_case "traces across executors" `Quick
            test_campaign_traces_executor_independent;
        ] );
    ]
