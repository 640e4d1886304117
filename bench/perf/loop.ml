(* The benchmark's own campaign loop: [Campaign.environment], the trial
   executor's machine cache and [Trial.run], rebuilt call for call from
   public functions so that a span can sit around every call into a layer.
   Its records must equal [Campaign.run]'s; the benchmark checks that they
   do on every run. *)

open Ferrite_machine
module System = Ferrite_kernel.System
module Boot = Ferrite_kernel.Boot
module Image = Ferrite_kir.Image
module Workload = Ferrite_workload.Workload
module Runner = Ferrite_workload.Runner
module Profiler = Ferrite_workload.Profiler
module Campaign = Ferrite_injection.Campaign
module Trial = Ferrite_injection.Trial
module Target = Ferrite_injection.Target
module Engine = Ferrite_injection.Engine
module Outcome = Ferrite_injection.Outcome
module Collector = Ferrite_injection.Collector
module Fault_model = Ferrite_injection.Fault_model
module Tracer = Ferrite_trace.Tracer
module Event = Ferrite_trace.Event

(* Counts taken at the same boundaries as the spans. *)
type counts = {
  mutable trials : int;
  mutable restore_pages : int;
  mutable insns : int;
  mutable cycles : int;
  mutable cache : Cache_stats.t;  (** summed over [Engine.run_one] calls *)
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable events : int;
  mutable watchdog : int;
}

let counts () =
  {
    trials = 0;
    restore_pages = 0;
    insns = 0;
    cycles = 0;
    cache = Cache_stats.zero;
    minor_words = 0.0;
    promoted_words = 0.0;
    events = 0;
    watchdog = 0;
  }

(* One booted machine per architecture and its post-boot snapshot: the
   executor's per-worker system cache. *)
type machine = {
  sys : System.t;
  snap : System.snapshot;
  mutable pristine : bool;
  mutable policy_reboot : bool;
  mutable reboots : int;
}

type arch_env = { image : Image.t; hot : (string * float) list; machine : machine }

let setup ?(sp = Spans.off) arch =
  let image = Spans.with_span sp "kir.build_image" (fun () -> Boot.build_image arch) in
  let hot =
    Spans.with_span sp "workload.profile" (fun () ->
        let samples = Profiler.profile (Boot.boot ~image arch) in
        let hot = Profiler.hot_functions ~coverage:0.95 samples in
        List.filter_map
          (fun (s : Profiler.sample) ->
            if List.mem s.Profiler.fn_name hot then Some (s.Profiler.fn_name, s.Profiler.fraction)
            else None)
          samples)
  in
  let sys = Spans.with_span sp "kernel.boot" (fun () -> Boot.boot ~image arch) in
  Spans.with_span sp "kernel.prewarm" (fun () -> System.prewarm sys);
  let snap = Spans.with_span sp "kernel.snapshot" (fun () -> System.snapshot sys) in
  { image; hot; machine = { sys; snap; pristine = true; policy_reboot = false; reboots = 1 } }

let env (a : arch_env) (cfg : Campaign.config) =
  {
    Trial.env_arch = cfg.Campaign.arch;
    env_kind = cfg.Campaign.kind;
    env_image = a.image;
    env_hot = a.hot;
    env_engine = Engine.validated cfg.Campaign.engine;
    env_collector_loss = cfg.Campaign.collector_loss;
    env_collector_retries = cfg.Campaign.collector_retries;
    env_fault_model = Fault_model.validated cfg.Campaign.fault_model;
    env_targeting = cfg.Campaign.targeting;
  }

let run_trial ?(sp = Spans.off) ?counts ~id (env : Trial.env) m (spec : Trial.spec) =
  Spans.with_span sp ~trial:id "trial" (fun () ->
      let gc0 = match counts with Some _ -> Gc.counters () | None -> (0., 0., 0.) in
      let sys = m.sys in
      if not m.pristine then begin
        let before = Option.map (fun _ -> System.cache_stats sys) counts in
        Spans.with_span sp "kernel.restore" (fun () -> System.restore sys m.snap);
        Option.iter
          (fun c ->
            let d = Cache_stats.delta ~before:(Option.get before) ~after:(System.cache_stats sys) in
            c.restore_pages <- c.restore_pages + d.Cache_stats.cs_restore_pages)
          counts;
        m.pristine <- true;
        if m.policy_reboot then m.reboots <- m.reboots + 1;
        m.policy_reboot <- false
      end;
      let runner =
        Spans.with_span sp "workload.ops" (fun () ->
            let rng = Rng.create ~seed:spec.Trial.workload_seed in
            Runner.create sys ~ops:(spec.Trial.workload.Workload.wl_ops rng))
      in
      let target =
        Spans.with_span sp "injection.target" (fun () ->
            match spec.Trial.forced_target with
            | Some t -> t
            | None ->
              Target.generate sys env.Trial.env_kind ~targeting:env.Trial.env_targeting
                ~hot:env.Trial.env_hot
                (Rng.create ~seed:spec.Trial.target_seed))
      in
      let collector =
        Collector.create ~loss_rate:env.Trial.env_collector_loss
          ~retries:env.Trial.env_collector_retries ~seed:spec.Trial.collector_seed ()
      in
      let tracer = Tracer.create Tracer.telemetry_only in
      let stamp () =
        let cycles, instructions = Counters.stamp (System.counters sys) in
        let pc = System.pc sys in
        {
          Event.s_cycles = cycles;
          s_instructions = instructions;
          s_pc = pc;
          s_function = Option.map (fun f -> f.Image.fs_name) (Image.function_at sys.System.image pc);
        }
      in
      Tracer.record tracer (stamp ())
        (Event.Trial_begin { trial = spec.Trial.index; target = Target.describe target });
      let dump = ref None in
      let c0 = System.counters sys in
      let insns0 = c0.Counters.instructions and cycles0 = c0.Counters.cycles in
      let cache0 = Option.map (fun _ -> System.cache_stats sys) counts in
      let record =
        Spans.with_span sp "injection.run_one" (fun () ->
            Engine.run_one ~tracer ~model:env.Trial.env_fault_model
              ~fault_seed:spec.Trial.fault_seed
              ~on_dump:(fun d -> dump := Some d)
              ~sys ~runner ~target ~collector env.Trial.env_engine)
      in
      let label = Outcome.outcome_label record.Outcome.r_outcome in
      Tracer.record tracer (stamp ()) (Event.Trial_end { trial = spec.Trial.index; outcome = label });
      m.pristine <- false;
      (match record.Outcome.r_outcome with
      | Outcome.Not_activated when env.Trial.env_kind <> Target.Register -> ()
      | _ -> m.policy_reboot <- true);
      let trace =
        Tracer.trial_of tracer ~index:spec.Trial.index ~target:(Target.describe target) ~outcome:label
      in
      Option.iter
        (fun c ->
          let c1 = System.counters sys in
          c.trials <- c.trials + 1;
          c.insns <- c.insns + (c1.Counters.instructions - insns0);
          c.cycles <- c.cycles + (c1.Counters.cycles - cycles0);
          c.cache <-
            Cache_stats.merge c.cache
              (Cache_stats.delta ~before:(Option.get cache0) ~after:(System.cache_stats sys));
          let tl = trace.Tracer.tr_telemetry in
          c.events <- c.events + tl.Ferrite_trace.Telemetry.tl_events;
          c.watchdog <- c.watchdog + tl.Ferrite_trace.Telemetry.tl_watchdog_expiries;
          let minor0, promoted0, _ = gc0 in
          let minor1, promoted1, _ = Gc.counters () in
          c.minor_words <- c.minor_words +. (minor1 -. minor0);
          c.promoted_words <- c.promoted_words +. (promoted1 -. promoted0))
        counts;
      (record, Collector.stats collector, trace, !dump))
