(* Unit checks for the benchmark's own machinery: the span tree, its JSON
   round trip, the quartiles and the pair rule. *)

module Image = Ferrite_kir.Image
module Campaign = Ferrite_injection.Campaign
module Target = Ferrite_injection.Target

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "FAIL %s\n%!" name
  end

let spin n =
  let x = ref 0 in
  for i = 1 to n do
    x := !x lxor i
  done;
  ignore (Sys.opaque_identity !x)

(* Every span's subtree self times add up to its duration. *)
let self_times_add_up spans =
  let self = Spans.self_times spans in
  let subtree = Array.copy self in
  for i = Array.length spans - 1 downto 0 do
    let p = spans.(i).Spans.parent in
    if p >= 0 then subtree.(p) <- subtree.(p) + subtree.(i)
  done;
  Array.for_all2 (fun (s : Spans.span) t -> Spans.duration s = t) spans subtree

let roundtrip spans =
  let j = Spans.to_json ~workload:"test" spans in
  Spans.of_json (Json.of_string (Json.to_string j)) = spans

let synthetic () =
  let sp = Spans.create () in
  Spans.with_span sp "campaign" (fun () ->
      for trial = 0 to 2 do
        Spans.with_span sp ~trial "trial" (fun () ->
            spin 1000;
            Spans.with_span sp "a" (fun () -> spin 5000);
            Spans.with_span sp "b" (fun () -> Spans.with_span sp "c" (fun () -> spin 2000)))
      done);
  (try Spans.with_span sp "raises" (fun () -> failwith "boom") with Failure _ -> ());
  let spans = Spans.spans sp in
  check "synthetic tree is valid" (Spans.check spans = Ok ());
  check "synthetic self times add up" (self_times_add_up spans);
  check "children inherit the trial" (spans.(4).Spans.name = "c" && spans.(4).Spans.trial = 0);
  check "a raising span still closes" (spans.(Array.length spans - 1).Spans.stop >= 0);
  check "synthetic JSON round trip" (roundtrip spans);
  let moved i f = Array.mapi (fun j s -> if i = j then f s else s) spans in
  check "a child outside its parent is caught"
    (Spans.check (moved 2 (fun s -> { s with Spans.stop = spans.(1).Spans.stop + 1 })) <> Ok ());
  check "overlapping siblings are caught"
    (Spans.check (moved 3 (fun s -> { s with Spans.start = spans.(2).Spans.stop - 1 })) <> Ok ())

(* A real traced campaign: the tree the benchmark writes must hold the same
   invariants, and the trial span must be covered by its children but for
   the unattributed remainder. *)
let traced_campaign () =
  let sp = Spans.create () in
  let cfg =
    { (Campaign.default ~arch:Image.Risc ~kind:Target.Stack ~injections:24) with Campaign.seed = 7L }
  in
  let next = ref 0 in
  let next_id () =
    incr next;
    !next - 1
  in
  let _, traced = Work.loop_campaign ~sp ~next_id cfg in
  let spans = Spans.spans sp in
  check "traced tree is valid" (Spans.check spans = Ok ());
  check "traced self times add up" (self_times_add_up spans);
  check "traced JSON round trip" (roundtrip spans);
  let trials = List.filter (fun (s : Spans.span) -> s.Spans.name = "trial") (Array.to_list spans) in
  check "one trial span per trial" (List.length trials = 24);
  let self = Spans.self_times spans in
  let trial_ns, unattributed =
    Array.fold_left
      (fun (t, u) (i, (s : Spans.span)) ->
        if s.Spans.name = "trial" then (t + Spans.duration s, u + self.(i)) else (t, u))
      (0, 0)
      (Array.mapi (fun i s -> (i, s)) spans)
  in
  check "unattributed trial time is a small share"
    (float_of_int unattributed < 0.2 *. float_of_int trial_ns);
  check "the loop reproduces Campaign.run"
    ((Campaign.run cfg).Campaign.records = traced.Campaign.records)

(* Values from Python's statistics.quantiles(data, n=4). *)
let quartiles () =
  let close (a, b, c) (x, y, z) = abs_float (a -. x) < 1e-9 && abs_float (b -. y) < 1e-9 && abs_float (c -. z) < 1e-9 in
  check "quartiles of 1..10" (close (Quant.quartiles (List.init 10 (fun i -> float_of_int (i + 1)))) (2.75, 5.5, 8.25));
  check "quartiles of 3 values" (close (Quant.quartiles [ 3.0; 1.0; 2.0 ]) (1.0, 2.0, 3.0));
  check "quartiles of 5 values" (close (Quant.quartiles [ 1.0; 2.0; 4.0; 8.0; 16.0 ]) (1.5, 4.0, 12.0));
  check "p99 nearest rank" (Quant.percentile 99.0 (List.init 200 float_of_int) = 197.0)

let pair_rule () =
  let ten f = List.init 10 (fun i -> f (float_of_int i)) in
  let parent = ten (fun i -> 100.0 +. i) in
  check "a clear gain" (Compare.judge ~better:"higher" ~bound:0.1 parent (ten (fun i -> 120.0 +. i)) = Compare.Gain);
  check "a regression" (Compare.judge ~better:"higher" ~bound:0.1 parent (ten (fun i -> 80.0 +. i)) = Compare.Regression);
  check "within the bound" (Compare.judge ~better:"lower" ~bound:0.1 parent (ten (fun i -> 101.0 +. i)) = Compare.Same);
  check "too noisy to tell"
    (Compare.judge ~better:"lower" ~bound:0.02 parent (ten (fun i -> 99.0 +. (i *. 1.1))) = Compare.Unresolved)

let () =
  synthetic ();
  traced_campaign ();
  quartiles ();
  pair_rule ();
  if !failures > 0 then exit 1;
  print_endline "perf unit checks ok"
