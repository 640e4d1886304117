(* Bounded ring-buffer event tracer.

   One tracer serves one trial; the ring keeps the most recent
   [trace_capacity] events (a flight recorder: a hang can emit millions of
   watchpoint hits, and the interesting suffix is the one that ends in the
   crash), while telemetry counters are exact regardless of drops. A
   capacity of 0 disables event retention entirely and keeps only the
   counters — cheap enough to leave on for every campaign trial. *)

type config = { trace_capacity : int }

let default_config = { trace_capacity = 4096 }
let telemetry_only = { trace_capacity = 0 }

let validated config =
  if config.trace_capacity < 0 then
    invalid_arg "Tracer.config: trace_capacity must be non-negative";
  config

type t = {
  capacity : int;
  ring : (Event.stamp * Event.t) option array;  (* None = slot never written *)
  mutable total : int;  (* events ever recorded; ring holds the last [capacity] *)
  mutable trials : int;
  mutable activations : int;
  mutable flips : int;
  mutable reinjections : int;
  mutable strays : int;
  mutable watchdogs : int;
  mutable exceptions : int;
  mutable dumps_sent : int;
  mutable dumps_lost : int;
  mutable retransmits : int;
  mutable retries : int;
  mutable quarantines : int;
}

let create config =
  let config = validated config in
  {
    capacity = config.trace_capacity;
    ring = Array.make (max 1 config.trace_capacity) None;
    total = 0;
    trials = 0;
    activations = 0;
    flips = 0;
    reinjections = 0;
    strays = 0;
    watchdogs = 0;
    exceptions = 0;
    dumps_sent = 0;
    dumps_lost = 0;
    retransmits = 0;
    retries = 0;
    quarantines = 0;
  }

let count t ev =
  match (ev : Event.t) with
  | Event.Trial_begin _ -> t.trials <- t.trials + 1
  | Event.Activated _ -> t.activations <- t.activations + 1
  | Event.Flip _ | Event.Reg_flip _ -> t.flips <- t.flips + 1
  | Event.Reinject _ ->
    t.flips <- t.flips + 1;
    t.reinjections <- t.reinjections + 1
  | Event.Bp_hit { stray = true; _ } -> t.strays <- t.strays + 1
  | Event.Watchdog_expired _ -> t.watchdogs <- t.watchdogs + 1
  | Event.Exn_raised _ -> t.exceptions <- t.exceptions + 1
  | Event.Collector_send { delivered = true } -> t.dumps_sent <- t.dumps_sent + 1
  | Event.Collector_send { delivered = false } -> t.dumps_lost <- t.dumps_lost + 1
  | Event.Collector_retransmit { retries } -> t.retransmits <- t.retransmits + retries
  | Event.Trial_retry _ -> t.retries <- t.retries + 1
  | Event.Trial_quarantined _ -> t.quarantines <- t.quarantines + 1
  | Event.Resume_skip _ -> ()
  | Event.Trial_end _ | Event.Arm_bp _ | Event.Restore _
  | Event.Bp_hit { stray = false; _ } | Event.Watch_hit _ | Event.Handler_done _
  | Event.Classified _ -> ()

let record_with t stamp ev =
  count t ev;
  if t.capacity > 0 then t.ring.(t.total mod t.capacity) <- Some (stamp (), ev);
  t.total <- t.total + 1

let record t stamp ev = record_with t (fun () -> stamp) ev

let recorded t = t.total

let dropped t = if t.capacity = 0 then t.total else max 0 (t.total - t.capacity)

let events t =
  if t.capacity = 0 || t.total = 0 then []
  else begin
    let n = min t.total t.capacity in
    let first = t.total - n in
    List.init n (fun i ->
        match t.ring.((first + i) mod t.capacity) with
        | Some e -> e
        | None -> assert false (* slots below [total] are always written *))
  end

let telemetry t =
  {
    Telemetry.tl_trials = t.trials;
    tl_activations = t.activations;
    tl_flips = t.flips;
    tl_reinjections = t.reinjections;
    tl_stray_breakpoints = t.strays;
    tl_watchdog_expiries = t.watchdogs;
    tl_exceptions = t.exceptions;
    tl_dumps_sent = t.dumps_sent;
    tl_dumps_lost = t.dumps_lost;
    tl_retransmits = t.retransmits;
    tl_retries = t.retries;
    tl_quarantines = t.quarantines;
    tl_boots = 0;
    tl_events = t.total;
    tl_dropped = dropped t;
  }

(* The per-trial value that survives the executor's merge. *)
type trial = {
  tr_index : int;
  tr_target : string;
  tr_outcome : string;
  tr_events : (Event.stamp * Event.t) list;
  tr_dropped : int;
  tr_telemetry : Telemetry.t;
}

let trial_of t ~index ~target ~outcome =
  {
    tr_index = index;
    tr_target = target;
    tr_outcome = outcome;
    tr_events = events t;
    tr_dropped = dropped t;
    tr_telemetry = telemetry t;
  }
