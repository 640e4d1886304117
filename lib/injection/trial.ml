open Ferrite_machine
module System = Ferrite_kernel.System
module Boot = Ferrite_kernel.Boot
module Workload = Ferrite_workload.Workload
module Runner = Ferrite_workload.Runner
module Image = Ferrite_kir.Image

type spec = {
  index : int;
  workload : Workload.t;
  target_seed : int64;
  workload_seed : int64;
  collector_seed : int64;
  fault_seed : int64;
  variant : Boot.variant;
  forced_target : Target.t option;
}

let plan ~seed ~injections ~variant =
  let programs = Array.of_list Workload.all in
  Array.init injections (fun index ->
      (* counter-style derivation: every per-trial stream is a pure function
         of (campaign seed, trial index), never of other trials' draws *)
      let rng = Rng.create_derived ~seed ~index in
      (* Each injection runs ONE benchmark program (the paper rotates through
         the UnixBench suite), while targets were profiled across the whole
         mix — pre-generated breakpoints in subsystems the drawn program does
         not exercise are what keeps activation partial (§3.2). *)
      let workload = Rng.pick rng programs in
      (* the historical draw order is collector, workload, target — the
         original spec literal evaluated its fields right-to-left — and the
         unused fault seed is drawn last: v1 journals replay only if these
         seeds stay bit-identical *)
      let collector_seed = Rng.next64 rng in
      let workload_seed = Rng.next64 rng in
      let target_seed = Rng.next64 rng in
      let fault_seed = Rng.next64 rng in
      {
        index;
        workload;
        target_seed;
        workload_seed;
        collector_seed;
        fault_seed;
        variant;
        forced_target = None;
      })

type env = {
  env_arch : Image.arch;
  env_kind : Target.kind;
  env_image : Image.t;
  env_hot : (string * float) list;
  env_engine : Engine.config;
  env_collector_loss : float;
  env_collector_retries : int;  (* bounded retransmission budget per dump *)
  env_fault_model : Fault_model.t;
  env_targeting : Target.targeting;
}

(* A kernel's machines: the snapshot taken right after its one boot, and a
   slot for at most one live machine in that state (the spare), with
   whether its translation caches are warm: pre-warmed, or filled by the
   hot-set profile's run. *)
type machines = {
  m_image : Image.t;
  m_snapshot : System.snapshot;
  m_spare : (System.t * bool) option Atomic.t;
}

let boot_machines image =
  let sys = Boot.boot ~image image.Image.img_arch in
  { m_image = image; m_snapshot = System.snapshot sys; m_spare = Atomic.make (Some (sys, false)) }

let drop_spare ms = Atomic.set ms.m_spare None

(* A machine in the snapshot's state, its counters at that moment and
   whether it is warm: the spare, taken atomically and rolled back,
   if it was made under the current fast-path and superblock defaults (a
   machine in another mode stays in the slot); otherwise a new one built
   from the snapshot, whose counters all count. [warm] pre-warms a cold
   one, after the counters are read: the first trials on it are the
   taker's. *)
let take ~warm ms =
  let warm_up sys warmed =
    if warm && not warmed then System.prewarm sys;
    warm || warmed
  in
  match Atomic.get ms.m_spare with
  | Some (sys, warmed) as cur
    when Memory.matches_defaults sys.System.mem && Atomic.compare_and_set ms.m_spare cur None ->
    let before = System.cache_stats sys in
    System.restore sys ms.m_snapshot;
    (sys, before, warm_up sys warmed)
  | _ ->
    let sys = Boot.of_snapshot ~image:ms.m_image ms.m_snapshot in
    (sys, Cache_stats.zero, warm_up sys false)

let hand_back ms spare = ignore (Atomic.compare_and_set ms.m_spare None (Some spare))

let with_machine ?(warms = false) ms f =
  let sys, _, warmed = take ~warm:false ms in
  let x = f sys in
  hand_back ms (sys, warmed || warms);
  x

type cache = {
  machines : machines;
  mutable booted : (System.t * Cache_stats.t) option;
      (* the machine and its counters when this cache took it *)
  mutable pristine : bool;  (* machine state equals the post-boot snapshot *)
  mutable policy_reboot : bool;  (* last run manifested: the paper reboots *)
  mutable reboots : int;
}

let cache_create machines =
  { machines; booted = None; pristine = false; policy_reboot = false; reboots = 0 }

let reboots cache = cache.reboots

(* Drop the cached machine entirely. After a contained harness failure the
   machine may be mid-trial in an arbitrary state (the exception could have
   escaped from anywhere), so the supervisor discards it, and it is never
   handed back; the next trial takes a fresh machine, which is counted as a
   reboot as usual. *)
let cache_invalidate cache =
  cache.booted <- None;
  cache.pristine <- false;
  cache.policy_reboot <- false

let cache_release cache =
  Option.iter (fun (sys, _) -> hand_back cache.machines (sys, true)) cache.booted;
  cache_invalidate cache

let cache_stats cache =
  match cache.booted with
  | None -> Cache_stats.zero
  | Some (sys, before) -> Cache_stats.delta ~before ~after:(System.cache_stats sys)

(* Hand out a machine in pristine post-boot state. The first call takes
   one, the spare (rolled back to the snapshot) or a new one built from the
   snapshot, pre-warms it unless it is warm already, and counts it as the
   cache's boot; later calls roll back to the snapshot. A rollback after a
   manifested run is counted as a reboot (the paper's STEP 3 policy); the
   rollback after a non-activated run is the bookkeeping that keeps trials
   order-independent and is not counted. *)
let cache_system cache =
  match cache.booted with
  | None ->
    let sys, before, _ = take ~warm:true cache.machines in
    cache.booted <- Some (sys, before);
    cache.pristine <- true;
    cache.policy_reboot <- false;
    cache.reboots <- cache.reboots + 1;
    sys
  | Some (sys, _) ->
    if not cache.pristine then begin
      System.restore sys cache.machines.m_snapshot;
      cache.pristine <- true;
      if cache.policy_reboot then cache.reboots <- cache.reboots + 1;
      cache.policy_reboot <- false
    end;
    sys

let run ?(trace = Ferrite_trace.Tracer.telemetry_only) env cache spec =
  let module Event = Ferrite_trace.Event in
  let sys = cache_system cache in
  let workload_rng = Rng.create ~seed:spec.workload_seed in
  let runner = Runner.create sys ~ops:(spec.workload.Workload.wl_ops workload_rng) in
  let target_rng = Rng.create ~seed:spec.target_seed in
  let target =
    match spec.forced_target with
    | Some t -> t
    | None ->
      Target.generate sys env.env_kind ~targeting:env.env_targeting ~hot:env.env_hot target_rng
  in
  let collector =
    Collector.create ~loss_rate:env.env_collector_loss ~retries:env.env_collector_retries
      ~seed:spec.collector_seed ()
  in
  let tracer = Ferrite_trace.Tracer.create trace in
  let stamp () =
    let counters = System.counters sys in
    let cycles, instructions = Ferrite_machine.Counters.stamp counters in
    let pc = System.pc sys in
    {
      Event.s_cycles = cycles;
      s_instructions = instructions;
      s_pc = pc;
      s_function =
        Option.map (fun f -> f.Image.fs_name) (Image.function_at sys.System.image pc);
    }
  in
  Ferrite_trace.Tracer.record_with tracer stamp
    (Event.Trial_begin { trial = spec.index; target = Target.describe target });
  let dump = ref None in
  let record =
    Engine.run_one ~tracer ~model:env.env_fault_model
      ~on_dump:(fun d -> dump := Some d)
      ~sys ~runner ~target ~collector env.env_engine
  in
  Ferrite_trace.Tracer.record_with tracer stamp
    (Event.Trial_end
       { trial = spec.index; outcome = Outcome.outcome_label record.Outcome.r_outcome });
  cache.pristine <- false;
  (* STEP 3: reboot unless the error was never activated (paper policy);
     register runs always count as potentially dirty *)
  (match record.Outcome.r_outcome with
  | Outcome.Not_activated when env.env_kind <> Target.Register -> ()
  | _ -> cache.policy_reboot <- true);
  let trial_trace =
    Ferrite_trace.Tracer.trial_of tracer ~index:spec.index ~target:(Target.describe target)
      ~outcome:(Outcome.outcome_label record.Outcome.r_outcome)
  in
  (record, Collector.stats collector, trial_trace, !dump)
