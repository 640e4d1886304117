(* [perf.exe compare PARENT CHANGE]: the paired rule over two directories of
   untraced run JSONs (the files [perf.exe bench] writes), one row per
   (workload, end-to-end metric).

   - gain: the change wins at least 9 of every 10 pairs (ties count for
     neither side) and the medians differ by more than the parent's IQR;
   - regression: the change's median is worse than the parent's by more than
     the metric's bound;
   - unresolved: either side's IQR exceeds the bound, unless every change run
     beats every parent run;
   - same: none of the above.

   Runs of one workload pair up in order of (seed, file name), so alternate
   parent and change runs with the same seeds. *)

let runs dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".json" && not (String.starts_with ~prefix:"trace-" f))
  |> List.filter_map (fun f ->
         match Json.read_file (Filename.concat dir f) with
         | j when Json.member "trace" j = Some (Json.Bool false) && Json.member "correct" j = Some (Json.Bool true) ->
           Some j
         | _ -> None
         | exception (Json.Parse_error _ | Sys_error _) -> None)

let values runs ~workload ~metric =
  runs
  |> List.filter (fun j -> Json.to_str (Json.field "workload" j) = workload)
  |> List.map (fun j -> (Json.to_num (Json.field "seed" j), Json.to_num (Json.field "value" (Json.field metric (Json.field "metrics" j)))))
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

type verdict = Gain | Regression | Unresolved | Same

let judge ~better ~bound parent change =
  let sign = if better = "higher" then 1.0 else -1.0 in
  let improves c p = sign *. (c -. p) > 0.0 in
  let pairs = List.combine (List.filteri (fun i _ -> i < List.length change) parent)
      (List.filteri (fun i _ -> i < List.length parent) change) in
  let wins = List.length (List.filter (fun (p, c) -> improves c p) pairs) in
  let p1, pm, p3 = Quant.quartiles parent and _, cm, _ = Quant.quartiles change in
  let spread_too_wide = Quant.iqr_share parent > bound || Quant.iqr_share change > bound in
  let all_better = List.for_all (fun c -> List.for_all (fun p -> improves c p) parent) change in
  if sign *. (pm -. cm) > bound *. abs_float pm then Regression
  else if 10 * wins >= 9 * List.length pairs && improves cm pm && abs_float (cm -. pm) > p3 -. p1 then Gain
  else if spread_too_wide && not all_better then Unresolved
  else Same

let run parent_dir change_dir =
  let spec = Json.read_file "BENCHMARK.json" in
  let parent = runs parent_dir and change = runs change_dir in
  let workloads = List.map (fun w -> w.Plan.name) Plan.all in
  Printf.printf "%-16s %-13s %5s %29s %29s  %s\n" "workload" "metric" "pairs" "parent q1/median/q3"
    "change q1/median/q3" "verdict";
  let regressions = ref 0 in
  List.iter
    (fun workload ->
      List.iter
        (fun m ->
          let metric = Json.to_str (Json.field "name" m) in
          let better = Json.to_str (Json.field "better" m) and bound = Json.to_num (Json.field "bound" m) in
          let p = values parent ~workload ~metric and c = values change ~workload ~metric in
          if p <> [] && c <> [] then begin
            let q (a, b, c) = Printf.sprintf "%9.4g/%9.4g/%9.4g" a b c in
            let v = judge ~better ~bound p c in
            if v = Regression then incr regressions;
            Printf.printf "%-16s %-13s %5d %29s %29s  %s\n" workload metric
              (min (List.length p) (List.length c))
              (q (Quant.quartiles p)) (q (Quant.quartiles c))
              (match v with
              | Gain -> "gain"
              | Regression -> Printf.sprintf "REGRESSION (bound %.0f%%)" (100.0 *. bound)
              | Unresolved -> "unresolved"
              | Same -> "same")
          end)
        (Json.to_list (Json.field "end_to_end" spec)))
    workloads;
  if !regressions > 0 then 1 else 0
