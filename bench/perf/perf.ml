(* perf.exe — Ferrite's benchmark.

     perf.exe bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
         one workload in this process; the last stdout line is the result JSON
     perf.exe run [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR] [--check FILE]
         every workload, each in its own process
     perf.exe compare PARENT_DIR CHANGE_DIR
         the paired comparison rule over two directories of run JSONs, with
         the bounds in ./BENCHMARK.json
     perf.exe digest
         print round 0's record digests for the default and held-out seeds

   See README.md in this directory. *)

let usage () =
  prerr_endline
    "usage: perf.exe bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]\n\
    \       perf.exe run [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR] [--check FILE]\n\
    \       perf.exe compare PARENT_DIR CHANGE_DIR\n\
    \       perf.exe digest";
  exit 2

(* --key value pairs, and the bare --quick *)
let parse args =
  let rec go acc = function
    | [] -> List.rev acc
    | "--quick" :: rest -> go (("--quick", "") :: acc) rest
    | key :: value :: rest when String.starts_with ~prefix:"--" key -> go ((key, value) :: acc) rest
    | _ -> usage ()
  in
  go [] args

let opt opts key = List.assoc_opt key opts

let seed_of opts =
  match opt opts "--seed" with
  | None -> Plan.default_seed
  | Some s -> ( match Int64.of_string_opt s with Some n -> n | None -> usage ())

let seconds_of opts =
  match opt opts "--seconds" with
  | None -> 15.0
  | Some s -> ( match float_of_string_opt s with Some f when f > 0.0 -> f | _ -> usage ())

let trace_of opts =
  match opt opts "--trace" with None | Some "0" -> false | Some "1" -> true | Some _ -> usage ()

let out_of opts = Option.value (opt opts "--out") ~default:"bench/perf/_out"
let quick_of opts = opt opts "--quick" <> None

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

let metric_json ms =
  Json.Obj (List.map (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ])) ms)

let bench opts =
  let w = match Option.bind (opt opts "--workload") Plan.find with Some w -> w | None -> usage () in
  let seed = seed_of opts and seconds = seconds_of opts and trace = trace_of opts in
  let quick = quick_of opts and out = out_of opts in
  let tmp = Filename.concat out (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  mkdir_p tmp;
  if Domain.recommended_domain_count () < 2 && not (Plan.sequential w) then
    Printf.printf "# note: %s runs two workers on a host with fewer than two cores\n" w.Plan.name;
  Host.warm ();
  let r =
    if trace then Layers.run ~quick ~tmp ~out w ~seed ~seconds else E2e.run ~quick ~tmp w ~seed ~seconds
  in
  (try Sys.rmdir tmp with Sys_error _ -> ());
  List.iter (fun n -> Printf.printf "# %s\n" n) r.E2e.notes;
  List.iter (fun (n, v, u) -> Printf.printf "%s %.6g %s\n" n v u) r.E2e.metrics;
  List.iter (fun (n, v, u) -> Printf.printf "bench.raw.%s %.6g %s\n" n v u) r.E2e.raw;
  let metrics = if r.E2e.correct then metric_json r.E2e.metrics else Json.Obj [] in
  let result =
    [
      ("correct", Json.Bool r.E2e.correct);
      ("attempted", Json.Num (float_of_int r.E2e.attempted));
      ("failed", Json.Num (float_of_int r.E2e.failed));
      ("metrics", metrics);
    ]
  in
  Json.write_file
    (Filename.concat out
       (Printf.sprintf "%s-seed%Ld-trace%d-%d.json" w.Plan.name seed (if trace then 1 else 0) (Unix.getpid ())))
    (Json.Obj
       ([
          ("workload", Json.Str w.Plan.name);
          ("seed", Json.Num (Int64.to_float seed));
          ("trace", Json.Bool trace);
          ("quick", Json.Bool quick);
        ]
       @ result
       @ [ ("raw", metric_json r.E2e.raw) ]));
  print_endline (Json.to_string (Json.Obj result));
  exit (if r.E2e.correct then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "bench" :: rest -> bench (parse rest)
  | _ :: "run" :: rest ->
    let opts = parse rest in
    Run_all.run ~seed:(seed_of opts) ~seconds:(seconds_of opts) ~trace:(trace_of opts) ~quick:(quick_of opts)
      ~out:(out_of opts) ~check:(opt opts "--check")
  | [ _; "compare"; parent; change ] -> exit (Compare.run parent change)
  | [ _; "digest" ] -> Run_all.digests ()
  | _ -> usage ()
