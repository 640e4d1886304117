(* Pieces shared by the untraced and the traced runs: completion clocks,
   report rendering, and the benchmark's own campaign loop. *)

module Image = Ferrite_kir.Image
module Campaign = Ferrite_injection.Campaign
module Outcome = Ferrite_injection.Outcome
module Collector = Ferrite_injection.Collector
module Journal = Ferrite_injection.Journal
module Supervisor = Ferrite_injection.Supervisor
module Triage = Ferrite_injection.Triage
module Result_store = Ferrite_injection.Result_store
module Tracer = Ferrite_trace.Tracer
module Telemetry = Ferrite_trace.Telemetry

(* Completions of one campaign on the probe-excluded clock. [started] is the
   campaign's first call; gaps are between successive completions. When a
   poll sees [k] completions at once they are spread evenly over the time
   since the previous one. *)
type clock = {
  started : int;
  mutable first : int;
  mutable last : int;
  mutable done_ : int;
  mutable gaps : float list;  (** ms, newest first *)
}

let clock started = { started; first = 0; last = 0; done_ = 0; gaps = [] }

let complete ?(k = 1) c now =
  if c.done_ = 0 then begin
    c.first <- now;
    for _ = 2 to k do
      c.gaps <- 0.0 :: c.gaps
    done
  end
  else begin
    let g = float_of_int (now - c.last) /. 1e6 /. float_of_int k in
    for _ = 1 to k do
      c.gaps <- g :: c.gaps
    done
  end;
  c.last <- now;
  c.done_ <- c.done_ + k

let setup_ns c = c.first - c.started

(* Σ(trials − 1) ÷ Σ(first → last completion), in trials per second. *)
let rate clocks =
  let trials = List.fold_left (fun n c -> n + max 0 (c.done_ - 1)) 0 clocks in
  let ns = List.fold_left (fun n c -> n + (c.last - c.first)) 0 clocks in
  if ns = 0 then 0.0 else float_of_int trials /. (float_of_int ns /. 1e9)

let suite_of arch = function
  | [ stack; sysreg; data; code ] -> { Ferrite.Suite.arch; stack; sysreg; data; code }
  | _ -> invalid_arg "Work.suite_of: a suite has four campaigns"

let triage_counts (r : Campaign.result) =
  let counts =
    List.fold_left2
      (fun acc record dump ->
        match Triage.of_record record dump with
        | Some b -> (b, 1 + Option.value ~default:0 (List.assoc_opt b acc)) :: List.remove_assoc b acc
        | None -> acc)
      [] r.Campaign.records r.Campaign.dumps
  in
  List.map (fun b -> (b, Option.value ~default:0 (List.assoc_opt b counts))) Triage.all

(* What a user reads at the end of each workload's campaigns. *)
let report (w : Plan.t) ?store (results : Campaign.result list) =
  match (w.Plan.shape, store) with
  | Plan.Persist, Some path -> Ferrite.Report.from_store_report (fst (Result_store.aggregate path))
  | Plan.Suite Image.Cisc, _ ->
    let s = suite_of Image.Cisc results in
    Ferrite.Report.table5 s ^ Ferrite.Report.fig4 s
  | Plan.Suite Image.Risc, _ ->
    let s = suite_of Image.Risc results in
    Ferrite.Report.table6 s ^ Ferrite.Report.fig5 s
  | (Plan.Jobs2 | Plan.Fleet2 | Plan.Persist), _ ->
    String.concat "\n"
      (List.map
         (fun (r : Campaign.result) ->
           Ferrite.Report.model_breakout r
           ^ Ferrite.Report.triage_table ~arch:r.Campaign.cfg.Campaign.arch
               ~kind:r.Campaign.cfg.Campaign.kind (triage_counts r))
         results)

let supervision ~journal ~resume =
  {
    Campaign.sv_policy = Supervisor.default_policy;
    sv_chaos = Supervisor.no_chaos;
    sv_journal = Some journal;
    sv_resume = resume;
  }

let plan_hash ?supervision cfg = Journal.plan_hash_of_string (Campaign.plan_fingerprint ?supervision cfg)

(* One campaign through {!Loop}: set-up, every trial, and (with [journal])
   the supervisor's journal append after each trial, exactly as the
   sequential executor orders them. [on_trial] sees each trial's global id
   and record after it completes. Returns the journal entries and the
   [Campaign.result] the executor would have merged. *)
let loop_campaign ?(sp = Spans.off) ?counts ?journal ?(next_id = fun () -> 0) ?(on_trial = fun _ _ -> ())
    (cfg : Campaign.config) =
  Spans.with_span sp "campaign" (fun () ->
      let a = Loop.setup ~sp cfg.Campaign.arch in
      let env = Loop.env a cfg in
      let specs = Spans.with_span sp "injection.plan" (fun () -> Campaign.plan cfg) in
      let sv =
        Option.map
          (fun path ->
            let supervision = supervision ~journal:path ~resume:false in
            if Sys.file_exists path then Sys.remove path;
            let w, recovery = Journal.open_for_append ~path ~plan_hash:(plan_hash ~supervision cfg) in
            (w, Supervisor.create ~policy:Supervisor.default_policy ~journal:w ~recovery ()))
          journal
      in
      let entries =
        Array.mapi
          (fun i spec ->
            let id = next_id () in
            let record, st, tr, dump = Loop.run_trial ~sp ?counts ~id env a.Loop.machine spec in
            let entry = { Journal.je_index = i; je_record = record; je_stats = st; je_trace = tr } in
            Option.iter
              (fun (_, sv) ->
                ignore (Supervisor.lookup sv i);
                Spans.with_span sp ~trial:id "injection.journal_append" (fun () ->
                    Supervisor.journal_append sv entry))
              sv;
            on_trial id record;
            (entry, dump))
          specs
      in
      Option.iter (fun (w, _) -> Journal.close w) sv;
      let traces = Array.to_list (Array.map (fun (e, _) -> e.Journal.je_trace) entries) in
      let reboots = a.Loop.machine.Loop.reboots in
      ( Array.map fst entries,
        {
          Campaign.cfg;
          records = Array.to_list (Array.map (fun (e, _) -> e.Journal.je_record) entries);
          traces;
          dumps = Array.to_list (Array.map snd entries);
          telemetry =
            Telemetry.with_boots
              (List.fold_left (fun acc t -> Telemetry.merge acc t.Tracer.tr_telemetry) Telemetry.zero traces)
              reboots;
          hot_profile = a.Loop.hot;
          reboots;
          collector =
            Array.fold_left
              (fun acc (e, _) -> Collector.merge_stats acc e.Journal.je_stats)
              Collector.zero_stats entries;
          cache = Ferrite_kernel.System.cache_stats a.Loop.machine.Loop.sys;
          supervision = Option.map (fun (_, sv) -> Supervisor.report sv) sv;
        } ))

let digest (results : Campaign.result list) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (List.map (fun r -> r.Campaign.records) results) [ Marshal.No_sharing ]))

let infrastructure_failures (r : Campaign.result) =
  List.length (List.filter (fun x -> Outcome.is_infrastructure x.Outcome.r_outcome) r.Campaign.records)

let vm_hwm_mib () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())
