module Boot = Ferrite_kernel.Boot
module Profiler = Ferrite_workload.Profiler
module Image = Ferrite_kir.Image

type config = {
  arch : Image.arch;
  kind : Target.kind;
  injections : int;
  seed : int64;
  ops_per_run : int;
  collector_loss : float;
  collector_retries : int;  (* bounded dump-retransmission budget *)
  engine : Engine.config;
  variant : Boot.variant;  (* kernel build variant (ablations) *)
  fault_model : Fault_model.t;
  targeting : Target.targeting;
}

let default ~arch ~kind ~injections =
  {
    arch;
    kind;
    injections;
    seed = 0xF3A11B17L;
    ops_per_run = 12;
    collector_loss = 0.12;
    collector_retries = 0;
    engine = Engine.default_config;
    variant = Boot.standard;
    fault_model = Fault_model.Single_bit_transient;
    targeting = Target.Uniform;
  }

type supervision = {
  sv_policy : Supervisor.policy;
  sv_chaos : Supervisor.chaos;
  sv_journal : string option;  (* checkpoint journal path *)
  sv_resume : bool;  (* recover completed trials from it before running *)
}

let default_supervision =
  {
    sv_policy = Supervisor.default_policy;
    sv_chaos = Supervisor.no_chaos;
    sv_journal = None;
    sv_resume = false;
  }

type result = {
  cfg : config;
  records : Outcome.record list;
  traces : Ferrite_trace.Tracer.trial list;
  dumps : Crash_dump.t option list;  (* same order as records *)
  telemetry : Ferrite_trace.Telemetry.t;
  hot_profile : (string * float) list;
  reboots : int;
  collector : Collector.stats;
  cache : Ferrite_machine.Cache_stats.t;
  supervision : Supervisor.report option;  (* Some iff run under supervision *)
}

let hot_profile image arch =
  let sys = Boot.boot ~image arch in
  let samples = Profiler.profile sys in
  let hot = Profiler.hot_functions ~coverage:0.95 samples in
  List.filter_map
    (fun (s : Profiler.sample) ->
      if List.mem s.Profiler.fn_name hot then Some (s.Profiler.fn_name, s.Profiler.fraction)
      else None)
    samples

let plan cfg = Trial.plan ~seed:cfg.seed ~injections:cfg.injections ~variant:cfg.variant

(* The canonical plan description hashed into a journal header. Everything
   that changes a trial record belongs here; [--jobs] (the executor) must
   not, or a journal written under --jobs 4 could not seed a --jobs 1
   resume. Floats are rendered with %h (hex, exact round-trip). *)
let plan_fingerprint ?supervision cfg =
  let arch = match cfg.arch with Image.Cisc -> "cisc" | Image.Risc -> "risc" in
  let kind =
    match cfg.kind with
    | Target.Code -> "code"
    | Target.Stack -> "stack"
    | Target.Data -> "data"
    | Target.Register -> "register"
  in
  let v = cfg.variant in
  let e = cfg.engine in
  let base =
    Printf.sprintf
      "ferrite-plan-v1;arch=%s;kind=%s;injections=%d;seed=%Ld;ops=%d;loss=%h;col-retries=%d;engine=%d,%d,%d,%d;variant=%s,%s,%b,%b,%b"
      arch kind cfg.injections cfg.seed cfg.ops_per_run cfg.collector_loss
      cfg.collector_retries e.Engine.step_budget e.Engine.tick_interval
      e.Engine.handler_cycles_cisc e.Engine.handler_cycles_risc
      (match v.Boot.v_mode with
      | None -> "default"
      | Some Ferrite_kir.Layout.Packed -> "packed"
      | Some Ferrite_kir.Layout.Widened -> "widened")
      (match v.Boot.v_promote with None -> "default" | Some n -> string_of_int n)
      v.Boot.v_g4_wrapper v.Boot.v_p4_wrapper v.Boot.v_assertions
  in
  match supervision with
  | None -> base
  | Some sv ->
    (* chaos and the retry ceiling shape quarantined records, so resuming a
       chaos journal without --chaos (or vice versa) is also a mismatch *)
    let pairs ps =
      String.concat "," (List.map (fun (i, n) -> Printf.sprintf "%d:%d" i n) ps)
    in
    Printf.sprintf "%s;max-retries=%d;raise=[%s];overrun=[%s];outage=%s" base
      sv.sv_policy.Supervisor.sp_max_retries
      (pairs sv.sv_chaos.Supervisor.ch_raise)
      (pairs sv.sv_chaos.Supervisor.ch_overrun)
      (match sv.sv_chaos.Supervisor.ch_outage with
      | None -> "none"
      | Some (lo, hi) -> Printf.sprintf "%d-%d" lo hi)

(* A kernel's campaign inputs: the compiled image and its profiled hot set.
   They depend only on (arch, variant), so a caller running several
   campaigns of one kernel derives them once and passes them to each. *)
type inputs = {
  in_arch : Image.arch;
  in_variant : Boot.variant;
  in_image : Image.t;
  in_hot : (string * float) list;
}

(* Derivations in this process; a count, never a cache. *)
let built = Atomic.make 0

let build_inputs ?(variant = Boot.standard) arch =
  Atomic.incr built;
  let image = Boot.build_image ~variant arch in
  { in_arch = arch; in_variant = variant; in_image = image; in_hot = hot_profile image arch }

let inputs_built () = Atomic.get built

let environment_with inputs cfg =
  if not (cfg.collector_loss >= 0.0 && cfg.collector_loss <= 1.0) then
    invalid_arg (Printf.sprintf "Campaign: collector_loss %g outside [0,1]" cfg.collector_loss);
  if inputs.in_arch <> cfg.arch || inputs.in_variant <> cfg.variant then
    invalid_arg "Campaign: inputs were built for another kernel";
  {
    Trial.env_arch = cfg.arch;
    env_kind = cfg.kind;
    env_image = inputs.in_image;
    env_hot = inputs.in_hot;
    env_engine = Engine.validated cfg.engine;
    env_collector_loss = cfg.collector_loss;
    env_collector_retries = cfg.collector_retries;
    env_fault_model = Fault_model.validated cfg.fault_model;
    env_targeting = cfg.targeting;
  }

(* Pure in the config: every caller derives the environment a sequential
   run uses. *)
let environment cfg = environment_with (build_inputs ~variant:cfg.variant cfg.arch) cfg

(* The one journal open, for the in-process run and the fabric controller
   alike: the journal is bound to the supervision fingerprint, so either
   can resume the other's file. Without [sv_resume] the path names a new
   journal: an old file there (same plan or not) is replaced, never
   continued. *)
let open_journal sv cfg =
  match sv.sv_journal with
  | None -> (None, Journal.empty_recovery)
  | Some path ->
    let plan_hash = Journal.plan_hash_of_string (plan_fingerprint ~supervision:sv cfg) in
    if (not sv.sv_resume) && Sys.file_exists path then Sys.remove path;
    let w, rc = Journal.open_for_append ~path ~plan_hash in
    (Some w, rc)

let of_outcome cfg ~hot ?supervision (out : Executor.outcome) =
  {
    cfg;
    records = Array.to_list out.Trial_table.records;
    traces = Array.to_list out.Trial_table.traces;
    dumps = Array.to_list out.Trial_table.dumps;
    telemetry = Ferrite_trace.Telemetry.with_boots out.Trial_table.telemetry out.reboots;
    hot_profile = hot;
    reboots = out.reboots;
    collector = out.collector;
    cache = out.cache;
    supervision;
  }

let run ?(progress = fun ~done_:_ ~total:_ -> ()) ?(executor = Executor.default)
    ?(tracer = Ferrite_trace.Tracer.telemetry_only) ?supervision ?inputs cfg =
  (* plan → execute → merge: take (or build) the shared read-only inputs,
     decompose the campaign into pure trial specs, hand them to the executor *)
  let env =
    match inputs with
    | Some i -> environment_with i cfg
    | None -> environment cfg
  in
  let writer, recovery =
    Option.fold supervision ~none:(None, Journal.empty_recovery) ~some:(fun sv -> open_journal sv cfg)
  in
  let supervisor =
    Option.map
      (fun sv -> Supervisor.create ~policy:sv.sv_policy ~chaos:sv.sv_chaos ~recovery ())
      supervision
  in
  let out =
    Fun.protect
      ~finally:(fun () -> Option.iter Journal.close writer)
      (fun () ->
        Executor.run ~progress ~trace:tracer ?supervisor ?journal:writer
          ~recovered:recovery.Journal.rc_entries executor env (plan cfg))
  in
  of_outcome cfg ~hot:env.Trial.env_hot ?supervision:(Option.map Supervisor.report supervisor) out

type summary = {
  injected : int;
  activated : int;
  activation_known : bool;
  not_manifested : int;
  fsv : int;
  known_crash : int;
  hang_or_unknown : int;
  infrastructure : int;
}

let summarize_records ~kind all =
  (* Quarantined trials are harness casualties, not kernel behaviour: they
     drop out of [injected] (every percentage denominator) and surface only
     in [infrastructure]. *)
  let records =
    List.filter (fun r -> not (Outcome.is_infrastructure r.Outcome.r_outcome)) all
  in
  let count f = List.length (List.filter f records) in
  {
    injected = List.length records;
    infrastructure = List.length all - List.length records;
    activated = count (fun r -> r.Outcome.r_activated);
    activation_known = kind <> Target.Register;
    not_manifested =
      count (fun r -> r.Outcome.r_outcome = Outcome.Not_manifested);
    fsv = count (fun r -> r.Outcome.r_outcome = Outcome.Fail_silence_violation);
    known_crash =
      count (fun r -> match r.Outcome.r_outcome with Outcome.Known_crash _ -> true | _ -> false);
    hang_or_unknown =
      count (fun r ->
          match r.Outcome.r_outcome with
          | Outcome.Hang | Outcome.Unknown_crash -> true
          | _ -> false);
  }

let summarize result = summarize_records ~kind:result.cfg.kind result.records

let crash_causes result =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match r.Outcome.r_outcome with
      | Outcome.Known_crash { ci_cause; _ } ->
        Hashtbl.replace tbl ci_cause (1 + Option.value ~default:0 (Hashtbl.find_opt tbl ci_cause))
      | _ -> ())
    result.records;
  Hashtbl.fold (fun c n acc -> (c, n) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* Records bucketed by fault-model tag (insertion order = first appearance,
   i.e. campaign order), for the per-model Table 5/6 breakouts. Quarantined
   trials are excluded as in [summarize]. *)
let group_by_model result =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      if not (Outcome.is_infrastructure r.Outcome.r_outcome) then begin
        let tag = Fault_model.tag r.Outcome.r_model in
        if not (Hashtbl.mem tbl tag) then order := tag :: !order;
        Hashtbl.replace tbl tag (r :: Option.value (Hashtbl.find_opt tbl tag) ~default:[])
      end)
    result.records;
  List.rev_map (fun tag -> (tag, List.rev (Hashtbl.find tbl tag))) !order

let latencies result =
  List.filter_map
    (fun r ->
      match r.Outcome.r_outcome with
      | Outcome.Known_crash { ci_latency; _ } -> Some ci_latency
      | _ -> None)
    result.records
