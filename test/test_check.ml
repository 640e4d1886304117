(* Tests for ferrite_check itself: generator determinism, the roundtrip and
   robustness oracles, ddmin minimality, the planted-decoder-bug
   catch-and-shrink pipeline, repro (de)serialisation and the replay of the
   committed reproducers under test/repro/. *)

open Ferrite_check
module Rng = Ferrite_machine.Rng
module Image = Ferrite_kir.Image
module CI = Ferrite_cisc.Insn

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---------- generators ---------- *)

let test_gen_deterministic () =
  let stream seed = Gen.cisc_stream (Rng.create ~seed) ~len:32 in
  check_bool "same seed, same cisc stream" true (stream 7L = stream 7L);
  check_bool "different seed, different stream" true (stream 7L <> stream 8L);
  let rstream seed = Gen.risc_stream (Rng.create ~seed) ~len:32 in
  check_bool "same seed, same risc stream" true (rstream 7L = rstream 7L);
  check_bool "different seed, different stream" true (rstream 7L <> rstream 8L)

let test_gen_always_encodable () =
  let rng = Rng.create ~seed:11L in
  for _ = 1 to 500 do
    ignore (Oracle.encode_cisc_stream (Gen.cisc_stream rng ~len:8));
    ignore (Oracle.encode_risc_stream (Gen.risc_stream rng ~len:8))
  done

(* ---------- oracles ---------- *)

let test_roundtrip_clean () =
  let counts = Fuzz.fresh_counts () in
  let rng = Rng.create ~seed:21L in
  (match Fuzz.fuzz_cisc_streams ~rng ~count:300 ~len:12 counts with
  | None -> ()
  | Some f -> Alcotest.failf "cisc: %s" f.Fuzz.f_msg);
  match Fuzz.fuzz_risc_streams ~rng ~count:300 ~len:12 counts with
  | None -> ()
  | Some f -> Alcotest.failf "risc: %s" f.Fuzz.f_msg

let test_robust_clean () =
  let counts = Fuzz.fresh_counts () in
  let rng = Rng.create ~seed:22L in
  (match Fuzz.fuzz_cisc_robust ~rng ~count:200 ~len:12 counts with
  | None -> ()
  | Some f -> Alcotest.failf "cisc: %s" f.Fuzz.f_msg);
  match Fuzz.fuzz_risc_robust ~rng ~count:200 ~len:12 counts with
  | None -> ()
  | Some f -> Alcotest.failf "risc: %s" f.Fuzz.f_msg

let test_roundtrip_rejects_desync () =
  (* a truncated stream: mov eax, imm32 with only two immediate bytes *)
  let bytes = "\xB8\x11\x00" in
  check_bool "truncation detected" true
    (Result.is_error (Oracle.check_cisc_stream bytes))

(* ---------- shrinker ---------- *)

let test_ddmin_minimal_pair () =
  let calls = ref 0 in
  let fails l =
    incr calls;
    List.mem 3 l && List.mem 7 l
  in
  let small = Shrink.ddmin ~fails (List.init 40 Fun.id) in
  check_bool "exactly the interacting pair" true (List.sort compare small = [ 3; 7 ]);
  check_bool "polynomial probe count" true (!calls < 2_000)

let test_ddmin_requires_failing_input () =
  match Shrink.ddmin ~fails:(fun _ -> false) [ 1; 2; 3 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ddmin must reject a passing input"

let test_shrink_int_finds_threshold () =
  check_int "threshold found" 37 (Shrink.shrink_int ~fails:(fun v -> v >= 37) ~lo:1 1_000);
  check_int "lo itself can fail" 1 (Shrink.shrink_int ~fails:(fun _ -> true) ~lo:1 1_000)

(* ---------- planted decoder bug: catch + shrink + replay ---------- *)

let buggy_decode ~fetch pc =
  let d = Ferrite_cisc.Decode.decode ~fetch pc in
  match d.CI.insn with
  | CI.Jcc (CI.L, rel) -> { d with CI.insn = CI.Jcc (CI.GE, rel) }
  | _ -> d

let test_planted_bug_caught_and_shrunk () =
  let rng = Rng.create ~seed:0xB06DL in
  match
    Fuzz.fuzz_cisc_streams ~decode:buggy_decode ~rng ~count:20_000 ~len:16
      (Fuzz.fresh_counts ())
  with
  | None -> Alcotest.fail "planted decoder bug was not caught"
  | Some f ->
    check_bool "shrunk to <= 3 instructions" true (f.Fuzz.f_units <= 3);
    (match f.Fuzz.f_repro with
    | Repro.Stream { bytes; _ } ->
      check_bool "repro still fails under the planted bug" true
        (Result.is_error (Oracle.check_cisc_stream ~decode:buggy_decode bytes))
    | Repro.Fault _ -> Alcotest.fail "expected a stream repro");
    check_bool "production decoder passes the repro" true
      (Result.is_ok (Repro.replay f.Fuzz.f_repro))

(* ---------- repro files ---------- *)

let test_repro_string_roundtrip () =
  let stream =
    Repro.Stream
      { arch = Image.Cisc; oracle = Repro.Robust; bytes = "\x66\xAB"; note = "stos16" }
  in
  let fault =
    Repro.Fault
      {
        spec =
          {
            Diff.df_arch = Image.Risc;
            df_kind = Ferrite_injection.Target.Code;
            df_seed = 0x123456789ABCDEFL;
            df_injections = 8;
            df_step_budget = 50_000;
          };
        trial = 3;
        note = "example";
      }
  in
  List.iter
    (fun r ->
      match Repro.of_string (Repro.to_string r) with
      | Ok r' -> check_bool "roundtrips" true (r = r')
      | Error e -> Alcotest.failf "parse failed: %s" e)
    [ stream; fault ];
  check_string "deterministic file name" (Repro.file_name stream) (Repro.file_name stream)

let test_repro_parse_errors () =
  let expect_error s =
    check_bool ("rejects: " ^ String.escaped s) true (Result.is_error (Repro.of_string s))
  in
  expect_error "";
  expect_error "not-a-repro 1\nkind stream\n";
  expect_error "ferrite-repro 1\nkind stream\narch p4\noracle roundtrip\nbytes zz\n";
  (* fault with trial out of range *)
  expect_error
    "ferrite-repro 1\nkind fault\ntarget g4 code\nseed 0x1\ninjections 4\ntrial 9\nstep-budget 1000\n"

(* Only the single-bit, uniform trial replays: a fault repro naming another
   fault model or targeting policy is an [Error], not an exception and not a
   silent single-bit replay. *)
let test_repro_retired_fields () =
  let fault =
    "ferrite-repro 1\nkind fault\narch g4\ntarget code\nseed 0x1\ninjections 4\ntrial 1\n\
     step-budget 1000\n"
  in
  check_bool "the plain fault repro parses" true (Result.is_ok (Repro.of_string fault));
  List.iter
    (fun line ->
      check_bool ("rejects: " ^ line) true (Result.is_error (Repro.of_string (fault ^ line ^ "\n"))))
    [ "fault-model multi:2"; "fault-model stuck_at:1"; "targeting profile"; "targeting uniform" ]

let test_committed_repros_replay () =
  let repros = Repro.load_dir "repro" in
  check_bool "seed repros are committed" true (List.length repros >= 3);
  List.iter
    (fun (path, r) ->
      match r with
      | Error e -> Alcotest.failf "%s: unreadable: %s" path e
      | Ok r -> (
        match Repro.replay r with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: historical find regressed: %s" path e))
    repros

(* ---------- differential runner ---------- *)

let test_diff_small_spec_clean () =
  let spec =
    {
      Diff.df_arch = Image.Cisc;
      df_kind = Ferrite_injection.Target.Stack;
      df_seed = 0xD1FFL;
      df_injections = 3;
      df_step_budget = 60_000;
    }
  in
  (match Diff.run_spec spec with
  | Ok () -> ()
  | Error mm ->
    Alcotest.failf "%s diverged in %s (trial %d)" mm.Diff.mm_config mm.Diff.mm_what
      mm.Diff.mm_trial);
  (* single-trial replay agrees with the whole-campaign run *)
  for t = 0 to spec.Diff.df_injections - 1 do
    match Diff.run_trial spec ~trial:t with
    | Ok () -> ()
    | Error mm -> Alcotest.failf "trial %d diverged in %s" t mm.Diff.mm_what
  done;
  check_bool "isolate on a clean spec reports nothing" true (Diff.isolate spec = None)

let () =
  Alcotest.run "ferrite_check"
    [
      ( "generators",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "always encodable" `Quick test_gen_always_encodable;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "roundtrip clean" `Quick test_roundtrip_clean;
          Alcotest.test_case "robust clean" `Quick test_robust_clean;
          Alcotest.test_case "desync detected" `Quick test_roundtrip_rejects_desync;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "ddmin minimal pair" `Quick test_ddmin_minimal_pair;
          Alcotest.test_case "ddmin rejects passing input" `Quick
            test_ddmin_requires_failing_input;
          Alcotest.test_case "shrink_int threshold" `Quick test_shrink_int_finds_threshold;
        ] );
      ( "planted bug",
        [
          Alcotest.test_case "caught, shrunk, replayed" `Quick
            test_planted_bug_caught_and_shrunk;
        ] );
      ( "repro files",
        [
          Alcotest.test_case "string roundtrip" `Quick test_repro_string_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_repro_parse_errors;
          Alcotest.test_case "retired fields refused" `Quick test_repro_retired_fields;
          Alcotest.test_case "committed repros replay" `Quick test_committed_repros_replay;
        ] );
      ( "differential",
        [ Alcotest.test_case "small spec clean" `Quick test_diff_small_spec_clean ] );
    ]
