open Ferrite_machine
module System = Ferrite_kernel.System
module Runner = Ferrite_workload.Runner
module Image = Ferrite_kir.Image

type config = {
  step_budget : int;
  tick_interval : int;
  handler_cycles_cisc : int;
  handler_cycles_risc : int;
}

(* Fig. 3 stage 3: the software exception handler executes 150-200
   instructions. On the P4 model that cold path costs ~3,500 cycles (deep
   pipeline, cache-cold handler); on the G4 ~400 — which is why the G4 can
   report stack errors inside the paper's <3k-cycle band while the P4 cannot. *)
let default_config =
  { step_budget = 1_500_000; tick_interval = 128;
    handler_cycles_cisc = 3_500; handler_cycles_risc = 400 }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let validated config =
  if config.step_budget <= 0 then invalid_arg "Engine.config: step_budget must be positive";
  if config.tick_interval <= 0 then invalid_arg "Engine.config: tick_interval must be positive";
  if is_power_of_two config.tick_interval then config
  else begin
    (* the run loop masks with [tick_interval - 1]; round up so the mask is
       sound instead of silently polling at a garbage rate *)
    let rec up p = if p >= config.tick_interval then p else up (p * 2) in
    { config with tick_interval = up 1 }
  end

(* Flip bit [bit] (0-31) of the 32-bit word at [addr], respecting the
   architecture's byte order so that "bit 0" is the word's LSB on both. *)
let flip_word_bit sys addr bit =
  let byte_in_word = bit / 8 in
  let byte_addr =
    match sys.System.arch with
    | Image.Cisc -> addr + byte_in_word
    | Image.Risc -> addr + (3 - byte_in_word)
  in
  Memory.flip_bit sys.System.mem ~addr:byte_addr ~bit:(bit mod 8)

(* Code errors use the same arch-aware addressing as any other word flip:
   the RISC core fetches instructions big-endian, so "bit 0 of the
   instruction" lives at the word's highest byte address there, while the
   CISC byte stream keeps it at the lowest. *)
let flip_code_bit sys addr bit = flip_word_bit sys addr bit

let symbolize sys pc =
  Option.map (fun f -> f.Image.fs_name) (Image.function_at sys.System.image pc)

let fault_label = function
  | System.Cisc_fault e -> Ferrite_cisc.Exn.to_string e
  | System.Risc_fault e -> Ferrite_risc.Exn.to_string e

type state = {
  (* cycle counter at activation; [None] until the error activates *)
  mutable activation : int option;
  mutable injected : bool;  (* register targets: has the flip happened yet *)
}

let run_one ?tracer ?(model = Fault_model.Single_bit_transient) ?fault_seed:(_ : int64 option)
    ?(on_dump = fun (_ : Crash_dump.t) -> ()) ~sys ~runner ~target ~collector config =
  let config = validated config in
  let counters = System.counters sys in
  let dr = System.debug_regs sys in
  let st = { activation = None; injected = false } in
  let module Event = Ferrite_trace.Event in
  let stamp () =
    let cycles, instructions = Counters.stamp counters in
    let pc = System.pc sys in
    { Event.s_cycles = cycles; s_instructions = instructions; s_pc = pc;
      s_function = symbolize sys pc }
  in
  let emit ev =
    match tracer with None -> () | Some tr -> Ferrite_trace.Tracer.record_with tr stamp ev
  in
  let activate cycle =
    if st.activation = None then st.activation <- Some cycle
  in
  (* STEP 2: arm the injection. A stack or data error is flipped now; a code
     error when its breakpoint fires; a register error at [at_instr]. *)
  (match target with
  | Target.Code_target { addr; _ } ->
    Debug_regs.set_instruction_bp dr addr;
    emit (Event.Arm_bp { kind = Event.Instruction; addr })
  | Target.Stack_target { addr; bit; _ } | Target.Data_target { addr; bit } ->
    let space =
      match target with
      | Target.Stack_target _ -> Event.Stack_space
      | _ -> Event.Data_space
    in
    flip_word_bit sys addr bit;
    emit (Event.Flip { space; addr; bit });
    Debug_regs.set_data_bp dr ~addr ~len:4;
    emit (Event.Arm_bp { kind = Event.Data; addr })
  | Target.Reg_target _ -> ());
  let reg_inject () =
    match target with
    | Target.Reg_target { index; name; bit; _ } ->
      let r = (System.system_registers sys).(index) in
      r.System.set (Word.flip_bit (r.System.get ()) bit);
      emit (Event.Reg_flip { reg = name; bit });
      st.injected <- true;
      if st.activation = None then begin
        activate counters.Counters.cycles;
        emit (Event.Activated { via = "register" })
      end
    | _ -> ()
  in
  let finish outcome =
    Debug_regs.clear_all dr;
    {
      Outcome.r_target = target;
      r_outcome = outcome;
      r_activated = st.activation <> None;
      r_activation_cycle = st.activation;
      r_model = model;
    }
  in
  let crash fault =
    (* Latency base must be captured *before* the handler idles the cycle
       counter: a never-activated crash (e.g. a workload-induced fault) runs
       from fault delivery, not from whatever the counter reads afterwards. *)
    let fault_cycle = counters.Counters.cycles in
    let base = Option.value st.activation ~default:fault_cycle in
    activate base;
    emit (Event.Exn_raised { fault = fault_label fault });
    (* the embedded crash handler runs (Fig. 3 stage 3). The G4's
       program-check handler first tries to emulate the offending word
       (math-emu / 601-compat paths in the 2.4 PPC tree) before conceding an
       oops, which is part of why G4 code-error latencies sit above 10k
       cycles in Fig. 16(C). *)
    (match fault with
    | System.Risc_fault Ferrite_risc.Exn.Program_illegal -> System.idle_cycles sys 12_000
    | _ -> ());
    System.idle_cycles sys
      (match fault with
      | System.Cisc_fault _ -> config.handler_cycles_cisc
      | System.Risc_fault _ -> config.handler_cycles_risc);
    emit
      (Event.Handler_done
         { fault = fault_label fault; cycles = counters.Counters.cycles - fault_cycle });
    let latency = counters.Counters.cycles - base in
    let cause = Crash_cause.classify sys fault in
    emit
      (Event.Classified { cause = Option.map Crash_cause.label cause; latency });
    match cause with
    | None -> finish Outcome.Unknown_crash  (* no dump could be produced *)
    | Some cause ->
      let info =
        {
          Outcome.ci_cause = cause;
          ci_latency = latency;
          ci_pc = System.pc sys;
          ci_function = symbolize sys (System.pc sys);
        }
      in
      (* ...and ships the dump over the lossy UDP path (with bounded
         retransmission when the collector is configured for it) *)
      let result, dv = Collector.send_detail collector info in
      if dv.Collector.dv_retransmits > 0 then
        emit (Event.Collector_retransmit { retries = dv.Collector.dv_retransmits });
      (match result with
      | Some info ->
        emit (Event.Collector_send { delivered = true });
        (* the dump reached the collector: capture its structured form while
           the machine is still at the crash point (a lost dump stays a
           Silent Drop for triage, exactly as in the paper) *)
        let events =
          match tracer with
          | None -> []
          | Some tr ->
            let evs = Ferrite_trace.Tracer.events tr in
            let n = List.length evs in
            let skip = max 0 (n - 8) in
            List.filteri (fun i _ -> i >= skip) evs
            |> List.map (fun ((st : Event.stamp), ev) ->
                   Printf.sprintf "[cyc %d] %s" st.Event.s_cycles (Event.describe ev))
        in
        on_dump
          (Crash_dump.capture ~events ~target
             ?activation_cycle:st.activation ~latency sys fault);
        finish (Outcome.Known_crash info)
      | None ->
        emit (Event.Collector_send { delivered = false });
        finish Outcome.Unknown_crash)
  in
  (* STEP 3: undo a never-activated memory error so it leaves no trace *)
  let restore_unactivated () =
    match target with
    | Target.Stack_target { addr; bit; _ } | Target.Data_target { addr; bit } ->
      flip_word_bit sys addr bit;
      emit (Event.Restore { addr; bit })
    | Target.Code_target _ | Target.Reg_target _ -> ()
  in
  let workload_done () =
    (* STEP 3: if the error never activated, undo it and count Not Activated *)
    if st.activation = None then begin
      restore_unactivated ();
      finish Outcome.Not_activated
    end
    else if Runner.fsv runner then finish Outcome.Fail_silence_violation
    else finish Outcome.Not_manifested
  in
  let tick_mask = config.tick_interval - 1 in
  let use_sb = System.superblocks_on sys in
  let rec loop steps skip_ibp =
    if steps >= config.step_budget then begin
      (* Watchdog expiry: the run is hung regardless of activation. If the
         error never activated, restore it (as STEP 3 would) — but do not
         route through [workload_done], whose Not-Activated/FSV verdicts do
         not apply to a run that never completed. *)
      emit (Event.Watchdog_expired { steps });
      if st.activation = None then restore_unactivated ();
      finish Outcome.Hang
    end
    else begin
      if steps land tick_mask = 0 && Runner.tick runner = Runner.Done then workload_done ()
      else step_once steps skip_ibp
    end
  and step_once steps skip_ibp =
    (* Register flips fire on the exact instruction boundary, not the next
       tick: the poll lives here so [at_instr] is honoured independently of
       [tick_interval]. *)
    (match target with
    | Target.Reg_target { at_instr; _ }
      when (not st.injected) && counters.Counters.instructions >= at_instr ->
      reg_inject ()
    | _ -> ());
    (* Superblock fast path: unless a breakpoint skip is pending, batch
       execution up to the next event the precise loop would observe — the
       next workload tick, the watchdog budget, an un-fired register
       injection's instruction boundary, or an armed execute breakpoint
       (the batch stops on it and reports [Hit_ibp], as [step] would).
       Every retired instruction advances the counter by exactly one, so
       bounding the batch by [at_instr - instructions] reproduces the
       per-step poll exactly. *)
    if use_sb && not skip_ibp then begin
      let allow =
        let a = config.tick_interval - (steps land tick_mask) in
        let a = min a (config.step_budget - steps) in
        match target with
        | Target.Reg_target { at_instr; _ } when not st.injected ->
          min a (at_instr - counters.Counters.instructions)
        | _ -> a
      in
      if allow > 1 then begin
        match System.run sys ~max_steps:allow with
        | System.Retired | System.Halted -> loop (steps + System.run_retired sys) false
        | System.Hit_ibp -> on_hit_ibp (steps + System.run_retired sys)
        | System.Hit_dbp hit -> on_hit_dbp (steps + System.run_retired sys) hit
        | System.Stopped -> finish Outcome.Unknown_crash
        | System.Faulted fault -> crash fault
      end
      else precise_step steps skip_ibp
    end
    else precise_step steps skip_ibp
  and precise_step steps skip_ibp =
    match System.step ~skip_ibp sys with
    | System.Retired | System.Halted -> loop (steps + 1) false
    | System.Hit_ibp -> on_hit_ibp steps
    | System.Hit_dbp hit -> on_hit_dbp steps hit
    | System.Stopped ->
      (* wild control flow reached the harness sentinel: no dump, no progress *)
      finish Outcome.Unknown_crash
    | System.Faulted fault -> crash fault
  and on_hit_ibp steps =
    match target with
    | Target.Code_target { addr; bit; _ } when System.pc sys = addr ->
      emit (Event.Bp_hit { addr = System.pc sys; stray = false });
      flip_code_bit sys addr bit;
      emit (Event.Flip { space = Event.Code_space; addr; bit });
      activate counters.Counters.cycles;
      emit (Event.Activated { via = "instruction breakpoint" });
      Debug_regs.clear_all dr;
      loop steps false
    | _ ->
      (* stray breakpoint (e.g. after wild control flow): step over it *)
      emit (Event.Bp_hit { addr = System.pc sys; stray = true });
      loop steps true
  and on_hit_dbp steps hit =
    (match target with
    | Target.Stack_target { addr; bit; _ } | Target.Data_target { addr; bit } ->
      emit (Event.Watch_hit { addr; is_write = hit.Debug_regs.is_write });
      if st.activation = None then begin
        activate counters.Counters.cycles;
        emit (Event.Activated { via = "data watchpoint" })
      end;
      (* a write overwrote the error: re-inject it (§3.3) *)
      if hit.Debug_regs.is_write then begin
        flip_word_bit sys addr bit;
        emit (Event.Reinject { addr; bit })
      end
    | Target.Code_target _ | Target.Reg_target _ -> ());
    loop (steps + 1) false
  in
  loop 1 false
