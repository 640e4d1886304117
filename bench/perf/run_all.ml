(* [perf.exe run]: every workload in its own process, and [perf.exe digest]. *)

let metric_names spec section =
  List.map
    (fun m -> (Json.to_str (Json.field "name" m), Json.to_str (Json.field "unit" m)))
    (Json.to_list (Json.field section spec))

(* Every metric [BENCHMARK.json] names for this mode, each with its unit. *)
let missing_metrics spec ~trace result =
  let metrics = Json.field "metrics" result in
  List.filter_map
    (fun (name, unit) ->
      let m = Json.field name metrics in
      if Json.field "unit" m = Json.Str unit && Float.is_finite (Json.to_num (Json.field "value" m)) then None
      else Some name)
    (metric_names spec (if trace then "per_layer" else "end_to_end"))

let run_one ~argv =
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let rec lines last =
    match input_line ic with
    | line ->
      print_endline line;
      lines (Some line)
    | exception End_of_file -> last
  in
  let last = lines None in
  let status = Unix.close_process_in ic in
  (status, Option.bind last (fun l -> try Some (Json.of_string l) with Json.Parse_error _ -> None))

let run ~seed ~seconds ~trace ~quick ~out ~check =
  let spec = Option.map Json.read_file check in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Option.iter
    (fun spec ->
      let named = List.map (fun w -> Json.to_str (Json.field "name" w)) (Json.to_list (Json.field "workloads" spec)) in
      if named <> List.map (fun w -> w.Plan.name) Plan.all then
        problem "BENCHMARK.json names workloads %s" (String.concat "," named))
    spec;
  List.iter
    (fun (w : Plan.t) ->
      let argv =
        Array.of_list
          ([
             Sys.executable_name;
             "bench";
             "--workload";
             w.Plan.name;
             "--seed";
             Int64.to_string seed;
             "--seconds";
             Printf.sprintf "%g" seconds;
             "--trace";
             (if trace then "1" else "0");
             "--out";
             out;
           ]
          @ if quick then [ "--quick" ] else [])
      in
      Printf.printf "== %s\n%!" w.Plan.name;
      match run_one ~argv with
      | Unix.WEXITED 0, Some result -> (
        if Json.field "correct" result <> Json.Bool true then problem "%s: not correct" w.Plan.name;
        match spec with
        | Some spec ->
          List.iter (problem "%s: metric %s missing or without its unit" w.Plan.name)
            (missing_metrics spec ~trace result)
        | None -> ())
      | _ -> problem "%s: the run failed" w.Plan.name)
    Plan.all;
  match List.rev !problems with
  | [] ->
    print_endline "perf run: every workload correct";
    exit 0
  | ps ->
    List.iter (fun p -> prerr_endline ("perf run: " ^ p)) ps;
    exit 1

(* Round 0 of every workload through the sequential loop — the reference the
   committed digests in digests.ml were made from. *)
let digests () =
  List.iter
    (fun (seed, quick) ->
      List.iter
        (fun (w : Plan.t) ->
          let results =
            List.map
              (fun cfg -> snd (Work.loop_campaign cfg))
              (Plan.campaigns ~quick w ~seed ~round:0)
          in
          Printf.printf "    (%S, 0x%LxL, %b, %S);\n%!" w.Plan.name seed quick (Work.digest results))
        Plan.all)
    [ (Plan.default_seed, false); (Plan.held_out_seed, false); (Plan.default_seed, true) ]
