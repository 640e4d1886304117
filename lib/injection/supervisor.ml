(* Campaign supervision: crash containment, retry, quarantine,
   resume bookkeeping and chaos drills.

   The paper's campaigns survived >115,000 injections because the NFTAPE
   harness was itself fault-tolerant: watchdog cards hard-rebooted hung
   targets and the controller retried or wrote off individual runs. This
   module is the controller half for our harness. One supervisor instance is
   shared by every executor worker; all mutable state (tallies, the
   supervision event ring, the journal writer) sits behind a single mutex, so
   the executors' Sequential == Parallel byte-identity is preserved for every
   non-quarantined trial. *)

module Event = Ferrite_trace.Event
module Tracer = Ferrite_trace.Tracer
module Rng = Ferrite_machine.Rng

(* ---------- retry policy ---------- *)

type policy = {
  sp_max_retries : int;  (* retries after the first attempt *)
  sp_host_deadline : float option;  (* wall-clock budget per attempt *)
}

let default_policy = { sp_max_retries = 2; sp_host_deadline = None }

let validated_policy p =
  if p.sp_max_retries < 0 then invalid_arg "Supervisor.policy: sp_max_retries must be >= 0";
  (match p.sp_host_deadline with
  | Some d when d <= 0.0 -> invalid_arg "Supervisor.policy: sp_host_deadline must be positive"
  | _ -> ());
  p

(* ---------- chaos drills ---------- *)

type chaos = {
  ch_raise : (int * int) list;  (* trial index -> leading attempts that raise *)
  ch_overrun : (int * int) list;  (* trial index -> leading attempts that overrun *)
  ch_outage : (int * int) option;  (* [lo, hi): collector loss forced to 1.0 *)
}

let no_chaos = { ch_raise = []; ch_overrun = []; ch_outage = None }

exception Chaos_fault of string
(* planted worker failure: must look exactly like an unexpected exception *)

let always = max_int

(* Deterministic drill: one always-raising trial, one raise-once trial, one
   overrun-once trial, and a collector outage window — all at seeded indices,
   so two runs of the same drill plant the same failures. *)
let drill_plan ~seed ~injections =
  if injections < 8 then
    { ch_raise = [ (0, always) ]; ch_overrun = []; ch_outage = None }
  else begin
    let rng = Rng.create_derived ~seed ~index:0xC4405 in
    let pick taken =
      let rec go () =
        let i = Rng.int rng injections in
        if List.mem i taken then go () else i
      in
      go ()
    in
    let dead = pick [] in
    let flaky = pick [ dead ] in
    let slow = pick [ dead; flaky ] in
    let span = max 1 (injections / 5) in
    let lo = Rng.int rng (injections - span + 1) in
    {
      ch_raise = [ (dead, always); (flaky, 1) ];
      ch_overrun = [ (slow, 1) ];
      ch_outage = Some (lo, lo + span);
    }
  end

(* ---------- supervisor ---------- *)

type quarantine = { q_index : int; q_attempts : int; q_reason : string }

type report = {
  sup_retries : int;
  sup_quarantined : quarantine list;  (* sorted by trial index *)
  sup_resume_skips : int;
  sup_journal_entries : int;
  sup_journal_truncated : int;
  sup_events : (Event.stamp * Event.t) list;  (* supervision timeline *)
}

let zero_report =
  {
    sup_retries = 0;
    sup_quarantined = [];
    sup_resume_skips = 0;
    sup_journal_entries = 0;
    sup_journal_truncated = 0;
    sup_events = [];
  }

type t = {
  policy : policy;
  chaos : chaos;
  lock : Mutex.t;
  journal : Journal.writer option;
  completed : (int, Journal.entry) Hashtbl.t;
  tracer : Tracer.t;  (* supervision timeline, bounded like any flight recorder *)
  mutable retries : int;
  mutable quarantined : quarantine list;
  mutable resume_skips : int;
  journal_entries : int;
  journal_truncated : int;
}

let zero_stamp = { Event.s_cycles = 0; s_instructions = 0; s_pc = 0; s_function = None }

let create ?(policy = default_policy) ?(chaos = no_chaos) ?journal
    ?(recovery = Journal.empty_recovery) () =
  let completed = Hashtbl.create 64 in
  List.iter
    (fun (e : Journal.entry) -> Hashtbl.replace completed e.Journal.je_index e)
    recovery.Journal.rc_entries;
  {
    policy = validated_policy policy;
    chaos;
    lock = Mutex.create ();
    journal;
    completed;
    tracer = Tracer.create { Tracer.trace_capacity = 4096 };
    retries = 0;
    quarantined = [];
    resume_skips = 0;
    journal_entries = List.length recovery.Journal.rc_entries;
    journal_truncated = recovery.Journal.rc_truncated_bytes;
  }

let report t =
  Mutex.protect t.lock (fun () ->
      {
        sup_retries = t.retries;
        sup_quarantined =
          List.sort (fun a b -> compare a.q_index b.q_index) t.quarantined;
        sup_resume_skips = t.resume_skips;
        sup_journal_entries = t.journal_entries;
        sup_journal_truncated = t.journal_truncated;
        sup_events = Tracer.events t.tracer;
      })

let lookup t index = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.completed index)

let note_skip t index =
  Mutex.protect t.lock (fun () ->
      t.resume_skips <- t.resume_skips + 1;
      Tracer.record t.tracer zero_stamp (Event.Resume_skip { trial = index }))

let journal_append t entry =
  match t.journal with
  | None -> ()
  | Some w -> Mutex.protect t.lock (fun () -> Journal.append w entry)

(* ---------- trial containment ---------- *)

let chaos_hits plan index attempt =
  match List.assoc_opt index plan with
  | Some upto -> attempt < upto
  | None -> false

let outage_env t index env =
  match t.chaos.ch_outage with
  | Some (lo, hi) when index >= lo && index < hi ->
    { env with Trial.env_collector_loss = 1.0 }
  | _ -> env

type failure = Worker_exn of string | Deadline_overrun of float

let failure_reason = function
  | Worker_exn msg -> msg
  | Deadline_overrun s -> Printf.sprintf "host deadline overrun (%.3fs)" s

let note_retry t index attempt reason =
  Mutex.protect t.lock (fun () ->
      t.retries <- t.retries + 1;
      Tracer.record t.tracer zero_stamp (Event.Trial_retry { trial = index; attempt; reason }))

(* A quarantined trial still yields a record (so trial indexing and the merge
   stay dense), a zero collector tally, and a synthesized trace whose events
   carry the failed attempts — that trace is where tl_retries/tl_quarantines
   come from, and it is deterministic because chaos plans are.

   [quarantine_entry] is the pure synthesis half, shared with the distributed
   fabric: a trial that keeps killing whole worker processes is quarantined
   by the controller with exactly the record/trace shape the in-process
   supervisor produces. *)
let quarantine_entry ~trace (spec : Trial.spec) reasons =
  let attempts = List.length reasons in
  if attempts = 0 then invalid_arg "Supervisor.quarantine_entry: no failure reasons";
  let last_reason = List.nth reasons (attempts - 1) in
  let index = spec.Trial.index in
  let outcome =
    Outcome.Infrastructure_failure { if_error = last_reason; if_attempts = attempts }
  in
  let target =
    match spec.Trial.forced_target with
    | Some tgt -> tgt
    | None -> Target.Data_target { addr = 0; bit = 0 } (* placeholder, see Outcome *)
  in
  let tracer = Tracer.create trace in
  Tracer.record tracer zero_stamp
    (Event.Trial_begin { trial = index; target = "<quarantined>" });
  List.iteri
    (fun attempt reason ->
      if attempt < attempts - 1 then
        Tracer.record tracer zero_stamp (Event.Trial_retry { trial = index; attempt; reason }))
    reasons;
  Tracer.record tracer zero_stamp
    (Event.Trial_quarantined { trial = index; attempts; reason = last_reason });
  Tracer.record tracer zero_stamp
    (Event.Trial_end { trial = index; outcome = Outcome.outcome_label outcome });
  let record =
    {
      Outcome.r_target = target;
      r_outcome = outcome;
      r_activated = false;
      r_activation_cycle = None;
      r_model = Fault_model.Single_bit_transient;
    }
  in
  let trial_trace =
    Tracer.trial_of tracer ~index ~target:"<quarantined>"
      ~outcome:(Outcome.outcome_label outcome)
  in
  (record, Collector.zero_stats, trial_trace, None)

let quarantined_result t ~trace (spec : Trial.spec) reasons =
  let result = quarantine_entry ~trace spec reasons in
  let attempts = List.length reasons in
  let last_reason = List.nth reasons (attempts - 1) in
  let index = spec.Trial.index in
  Mutex.protect t.lock (fun () ->
      t.quarantined <-
        { q_index = index; q_attempts = attempts; q_reason = last_reason } :: t.quarantined;
      Tracer.record t.tracer zero_stamp
        (Event.Trial_quarantined { trial = index; attempts; reason = last_reason }));
  result

let run_trial t ~trace env cache (spec : Trial.spec) =
  let index = spec.Trial.index in
  let attempt_once attempt =
    if chaos_hits t.chaos.ch_raise index attempt then
      raise
        (Chaos_fault
           (Printf.sprintf "chaos: planted worker exception (trial %d, attempt %d)" index
              attempt));
    if chaos_hits t.chaos.ch_overrun index attempt then
      Error (Deadline_overrun 0.0)
    else begin
      let t0 = Unix.gettimeofday () in
      let result = Trial.run ~trace (outage_env t index env) cache spec in
      match t.policy.sp_host_deadline with
      | Some budget ->
        let elapsed = Unix.gettimeofday () -. t0 in
        if elapsed > budget then Error (Deadline_overrun elapsed) else Ok result
      | None -> Ok result
    end
  in
  let rec go attempt reasons =
    let outcome =
      match attempt_once attempt with
      | result -> result
      | exception exn -> Error (Worker_exn (Printexc.to_string exn))
    in
    match outcome with
    | Ok result -> result
    | Error failure ->
      let reason = failure_reason failure in
      (* the machine may be stuck mid-trial in an arbitrary state: every
         retry starts from a genuinely fresh boot *)
      Trial.cache_invalidate cache;
      if attempt < t.policy.sp_max_retries then begin
        note_retry t index attempt reason;
        go (attempt + 1) (reason :: reasons)
      end
      else
        quarantined_result t ~trace spec (List.rev (reason :: reasons))
  in
  go 0 []
