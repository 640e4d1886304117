(* Differential fault-trial runner.

   A [spec] names a whole generated campaign (arch, kind, seed, trial count,
   step budget).  [run_spec] executes it under all four configurations

     {fast, reference} x {Sequential, Parallel}

   with reference/Sequential as the baseline, and demands byte-identical
   records, traces and telemetry (modulo [tl_boots], the one documented
   executor-dependent counter) plus identical collector stats.  Because trial
   specs are derived counter-style from the campaign seed, any failing trial
   can then be re-run in isolation ([run_trial]) and its step budget
   minimised — that is what the shrinker leans on. *)

open Ferrite_machine
module Campaign = Ferrite_injection.Campaign
module Executor = Ferrite_injection.Executor
module Trial_table = Ferrite_injection.Trial_table
module Engine = Ferrite_injection.Engine
module Fault_model = Ferrite_injection.Fault_model
module Target = Ferrite_injection.Target
module Trial = Ferrite_injection.Trial
module Boot = Ferrite_kernel.Boot
module Image = Ferrite_kir.Image
module Tracer = Ferrite_trace.Tracer
module Telemetry = Ferrite_trace.Telemetry

type spec = {
  df_arch : Image.arch;
  df_kind : Target.kind;
  df_seed : int64;
  df_injections : int;
  df_step_budget : int;
}

type mismatch = { mm_config : string; mm_what : string; mm_trial : int }

let arches = [| Image.Cisc; Image.Risc |]
let kinds = [| Target.Stack; Target.Data; Target.Code; Target.Register |]

let arch_name = function Image.Cisc -> "p4" | Image.Risc -> "g4"

let kind_name = function
  | Target.Stack -> "stack"
  | Target.Data -> "data"
  | Target.Code -> "code"
  | Target.Register -> "register"

let describe s =
  Printf.sprintf "%s/%s seed=%Lx injections=%d budget=%d" (arch_name s.df_arch)
    (kind_name s.df_kind) s.df_seed s.df_injections s.df_step_budget

let gen_spec rng ~injections ~step_budget =
  {
    df_arch = Rng.pick rng arches;
    df_kind = Rng.pick rng kinds;
    df_seed = Rng.next64 rng;
    df_injections = injections;
    df_step_budget = step_budget;
  }

(* image + hot profile per arch, built once (they are pure, read-only inputs
   shared by every configuration; profiling equivalence across fast paths is
   pinned separately by test_cache's campaign-level property) *)
let envs : (Image.arch, Image.t * (string * float) list) Hashtbl.t = Hashtbl.create 2

let image_and_hot arch =
  match Hashtbl.find_opt envs arch with
  | Some v -> v
  | None ->
    let i = Campaign.build_inputs arch in
    let v = (i.Campaign.in_image, i.Campaign.in_hot) in
    Hashtbl.replace envs arch v;
    v

let env_of s =
  let image, hot = image_and_hot s.df_arch in
  {
    Trial.env_arch = s.df_arch;
    env_kind = s.df_kind;
    env_image = image;
    env_hot = hot;
    env_engine =
      Engine.validated
        { Engine.default_config with Engine.step_budget = s.df_step_budget };
    env_collector_loss = (Campaign.default ~arch:s.df_arch ~kind:s.df_kind ~injections:1).Campaign.collector_loss;
    env_collector_retries = 0;
    env_fault_model = Fault_model.Single_bit_transient;
    env_targeting = Target.Uniform;
  }

let with_fast fast f =
  Memory.set_fast_paths_default fast;
  Fun.protect ~finally:(fun () -> Memory.set_fast_paths_default true) f

let run_specs ~fast ~executor env specs =
  with_fast fast (fun () -> Executor.run ~trace:Tracer.default_config executor env specs)

let first_diff a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i = if i >= n then min (Array.length a) (Array.length b) else if a.(i) <> b.(i) then i else go (i + 1) in
  go 0

let compare_outcomes name (base : Executor.outcome) (o : Executor.outcome) =
  if base.Trial_table.records <> o.Trial_table.records then
    Error
      {
        mm_config = name;
        mm_what = "records";
        mm_trial = first_diff base.Trial_table.records o.Trial_table.records;
      }
  else if base.Trial_table.traces <> o.Trial_table.traces then
    Error
      {
        mm_config = name;
        mm_what = "traces";
        mm_trial = first_diff base.Trial_table.traces o.Trial_table.traces;
      }
  else if
    Telemetry.with_boots base.Trial_table.telemetry 0
    <> Telemetry.with_boots o.Trial_table.telemetry 0
  then Error { mm_config = name; mm_what = "telemetry"; mm_trial = -1 }
  else if base.Trial_table.collector <> o.Trial_table.collector then
    Error { mm_config = name; mm_what = "collector stats"; mm_trial = -1 }
  else Ok ()

let parallel = Executor.Parallel { domains = 3 }

let configs =
  [
    ("fast/sequential", true, Executor.Sequential);
    ("fast/parallel", true, parallel);
    ("reference/parallel", false, parallel);
  ]

let run_on env specs =
  let base = run_specs ~fast:false ~executor:Executor.Sequential env specs in
  List.fold_left
    (fun acc (name, fast, executor) ->
      match acc with
      | Error _ -> acc
      | Ok () -> compare_outcomes name base (run_specs ~fast ~executor env specs))
    (Ok ()) configs

let plan s = Trial.plan ~seed:s.df_seed ~injections:s.df_injections ~variant:Boot.standard

let run_spec s = run_on (env_of s) (plan s)

let run_trial s ~trial =
  if trial < 0 || trial >= s.df_injections then
    invalid_arg "Diff.run_trial: trial out of range";
  (* counter-style seeds: the spec at [trial] is the same in any plan that
     is long enough, so a one-element slice replays it in isolation *)
  run_on (env_of s) [| (plan s).(trial) |]

(* Reduce a failing spec to a minimal reproducer: pin the first mismatching
   trial, then minimise the step budget that still shows the divergence. *)
let isolate s =
  match run_spec s with
  | Ok () -> None
  | Error mm ->
    let trial = if mm.mm_trial >= 0 && mm.mm_trial < s.df_injections then mm.mm_trial else 0 in
    let trial, mm =
      match run_trial s ~trial with
      | Error mm -> (trial, mm)
      | Ok () -> (
        (* telemetry-level mismatch without a trial index: scan for one *)
        let rec scan i =
          if i >= s.df_injections then None
          else
            match run_trial s ~trial:i with Error m -> Some (i, m) | Ok () -> scan (i + 1)
        in
        match scan 0 with Some x -> x | None -> (0, mm))
    in
    let fails budget =
      Result.is_error (run_trial { s with df_step_budget = budget } ~trial)
    in
    let budget =
      if fails s.df_step_budget then
        Shrink.shrink_int ~fails ~lo:1000 s.df_step_budget
      else s.df_step_budget
    in
    Some ({ s with df_step_budget = budget }, trial, mm)
