(* Tests for the workload layer: golden model, op generation, runner
   semantics (issue / complete / FSV detection) and the profiler. *)

open Ferrite_kernel
open Ferrite_workload
module Image = Ferrite_kir.Image
module Rng = Ferrite_machine.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- golden model ---------- *)

let test_golden_checksum_reference () =
  (* FNV-1a reference vector *)
  let b = Bytes.of_string "a" in
  check_int "fnv1a(a)" 0xE40C292C (Golden.checksum_bytes b);
  check_int "fnv1a(empty)" 0x811C9DC5 (Golden.checksum_bytes Bytes.empty)

let test_golden_pid () = check_int "worker 2" (Abi.first_worker + 2) (Golden.pid_of_worker 2)

let test_golden_mem_pattern () =
  let n = 100 in
  let manual = Golden.checksum (fun i -> i land 0xFF) n in
  check_int "pattern checksum" manual (Golden.mem_pattern_checksum n)

(* ---------- workload generation ---------- *)

let test_mix_deterministic () =
  let ops1 = (Workload.mix ~ops:30 ()).Workload.wl_ops (Rng.create ~seed:5L) in
  let ops2 = (Workload.mix ~ops:30 ()).Workload.wl_ops (Rng.create ~seed:5L) in
  check_int "same op count for same seed" (List.length ops1) (List.length ops2);
  check_bool "workers in range" true
    (List.for_all (fun o -> o.Workload.op_worker >= 0 && o.Workload.op_worker < Abi.nworkers) ops1);
  check_bool "think times non-negative" true
    (List.for_all (fun o -> o.Workload.op_think >= 0) ops1)

let test_all_programs_generate () =
  List.iter
    (fun wl ->
      let ops = wl.Workload.wl_ops (Rng.create ~seed:9L) in
      check_bool (wl.Workload.wl_name ^ " nonempty") true (List.length ops > 0))
    Workload.all

(* ---------- runner ---------- *)

let drive sys runner budget =
  let rec go n =
    if n = 0 then false
    else
      match System.step sys with
      | System.Faulted _ -> false
      | _ ->
        if n land 255 = 0 && Runner.tick runner = Runner.Done then true else go (n - 1)
  in
  go budget

let test_runner_completes_each_program () =
  List.iter
    (fun arch ->
      let image = Boot.build_image arch in
      List.iter
        (fun wl ->
          let sys = Boot.boot ~image arch in
          let runner = Runner.create sys ~ops:(wl.Workload.wl_ops (Rng.create ~seed:3L)) in
          check_bool (wl.Workload.wl_name ^ " completes") true (drive sys runner 6_000_000);
          check_bool (wl.Workload.wl_name ^ " no fsv on healthy kernel") false (Runner.fsv runner);
          check_int "completed = total" (Runner.total_ops runner) (Runner.completed_ops runner))
        Workload.all)
    [ Image.Cisc; Image.Risc ]

let test_runner_detects_fsv () =
  (* an op whose check always fails must raise the FSV flag *)
  let sys = Boot.boot Image.Cisc in
  let bad_op =
    {
      Workload.op_worker = 0;
      op_think = 0;
      op_issue = (fun _ -> (Abi.sys_getpid, 0, 0, 0, 0));
      op_check = (fun _ _ -> false);
    }
  in
  let runner = Runner.create sys ~ops:[ bad_op ] in
  check_bool "completes" true (drive sys runner 2_000_000);
  check_bool "fsv flagged" true (Runner.fsv runner)

let test_runner_think_time_advances_cycles () =
  let sys = Boot.boot Image.Cisc in
  let op =
    {
      Workload.op_worker = 0;
      op_think = 5_000_000;
      op_issue = (fun _ -> (Abi.sys_getpid, 0, 0, 0, 0));
      op_check = (fun _ _ -> true);
    }
  in
  let c0 = (System.counters sys).Ferrite_machine.Counters.cycles in
  let runner = Runner.create sys ~ops:[ op ] in
  check_bool "completes" true (drive sys runner 2_000_000);
  check_bool "think time in cycle counter" true
    ((System.counters sys).Ferrite_machine.Counters.cycles - c0 >= 5_000_000)

(* ---------- profiler ---------- *)

let test_profiler_sane () =
  let sys = Boot.boot Image.Cisc in
  let samples = Profiler.profile sys in
  check_bool "some functions sampled" true (List.length samples > 5);
  let total = List.fold_left (fun a s -> a +. s.Profiler.fraction) 0.0 samples in
  check_bool "fractions sum to ~1" true (abs_float (total -. 1.0) < 0.02);
  check_bool "sorted descending" true
    (let rec sorted = function
       | a :: (b :: _ as rest) -> a.Profiler.samples >= b.Profiler.samples && sorted rest
       | _ -> true
     in
     sorted samples);
  (* the copy/checksum routines must be among the hottest, as in the paper *)
  let hot = Profiler.hot_functions samples in
  check_bool "kmemcpy or kchecksum hot" true
    (List.mem "kmemcpy" hot || List.mem "kchecksum" hot);
  check_bool "scheduler in the hot set" true (List.mem "schedule" hot)

(* The profiler as it was before its pc table: a binary search and a
   string-keyed table per sample. The fast one must return the same list —
   names, counts, fractions and order. *)
let reference_profile ?(seed = 0x9E1DL) ?(ops = 48) ?(sample_every = 4) sys =
  let rng = Rng.create ~seed in
  let wl = Workload.mix ~ops () in
  let runner = Runner.create sys ~ops:(wl.Workload.wl_ops rng) in
  let counts : (string, int ref) Hashtbl.t = Hashtbl.create 64 in
  let total = ref 0 in
  let record pc =
    match Image.function_at sys.System.image pc with
    | None -> ()
    | Some f -> (
      incr total;
      match Hashtbl.find_opt counts f.Image.fs_name with
      | Some r -> incr r
      | None -> Hashtbl.replace counts f.Image.fs_name (ref 1))
  in
  let rec go n =
    if n > 0 then begin
      (match System.step sys with
      | System.Faulted _ -> failwith "reference profile: fault"
      | _ -> ());
      if n mod sample_every = 0 then record (System.pc sys);
      if not (n land 255 = 0 && Runner.tick runner = Runner.Done) then go (n - 1)
    end
  in
  go 4_000_000;
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) counts []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.map (fun (fn_name, n) ->
         { Profiler.fn_name; samples = n; fraction = float_of_int n /. float_of_int (max 1 !total) })

let test_profiler_matches_reference () =
  List.iter
    (fun arch ->
      let image = Boot.build_image arch in
      List.iter
        (fun (seed, ops, sample_every) ->
          let fast = Profiler.profile ~seed ~ops ~sample_every (Boot.boot ~image arch) in
          let slow = reference_profile ~seed ~ops ~sample_every (Boot.boot ~image arch) in
          check_bool
            (Printf.sprintf "seed %Ld, %d ops, every %d" seed ops sample_every)
            true (fast = slow))
        [ (0x9E1DL, 48, 4); (7L, 12, 4); (0x2004L, 80, 3); (1L, 30, 1); (3L, 6, 97); (5L, 4, 211) ])
    [ Image.Cisc; Image.Risc ]

let test_hot_functions_coverage () =
  let samples =
    [
      { Profiler.fn_name = "a"; samples = 60; fraction = 0.6 };
      { Profiler.fn_name = "b"; samples = 30; fraction = 0.3 };
      { Profiler.fn_name = "c"; samples = 9; fraction = 0.09 };
      { Profiler.fn_name = "d"; samples = 1; fraction = 0.01 };
    ]
  in
  check_int "95% needs three" 3 (List.length (Profiler.hot_functions ~coverage:0.95 samples));
  check_int "50% needs one" 1 (List.length (Profiler.hot_functions ~coverage:0.5 samples))

let () =
  Alcotest.run "ferrite_workload"
    [
      ( "golden",
        [
          Alcotest.test_case "fnv1a vector" `Quick test_golden_checksum_reference;
          Alcotest.test_case "pid" `Quick test_golden_pid;
          Alcotest.test_case "mem pattern" `Quick test_golden_mem_pattern;
        ] );
      ( "generation",
        [
          Alcotest.test_case "deterministic mix" `Quick test_mix_deterministic;
          Alcotest.test_case "all programs generate" `Quick test_all_programs_generate;
        ] );
      ( "runner",
        [
          Alcotest.test_case "completes every program, both ISAs" `Quick
            test_runner_completes_each_program;
          Alcotest.test_case "fsv detection" `Quick test_runner_detects_fsv;
          Alcotest.test_case "think time" `Quick test_runner_think_time_advances_cycles;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "profile sane" `Quick test_profiler_sane;
          Alcotest.test_case "profile matches the reference" `Quick
            test_profiler_matches_reference;
          Alcotest.test_case "coverage cut" `Quick test_hot_functions_coverage;
        ] );
    ]
