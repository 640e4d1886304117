module Tracer = Ferrite_trace.Tracer
module Telemetry = Ferrite_trace.Telemetry

type t = {
  lease : Lease.t;
  entries : Journal.entry option array;  (* indexed by trial index *)
  dumps : Crash_dump.t option array;  (* same indexing *)
  journal : Journal.writer option;
}

type outcome = {
  records : Outcome.record array;
  traces : Tracer.trial array;
  dumps : Crash_dump.t option array;
  telemetry : Telemetry.t;
  reboots : int;
  collector : Collector.stats;
  cache : Ferrite_machine.Cache_stats.t;
}

let create ?journal ?(max_deaths = 0) ~chunk total =
  {
    lease = Lease.create ~total ~chunk ~max_deaths;
    entries = Array.make total None;
    dumps = Array.make total None;
    journal;
  }

let lease t = t.lease
let missing t = Array.length t.entries - Lease.completed t.lease

let complete ?(recovered = false) t (entry : Journal.entry) dump =
  let index = entry.Journal.je_index in
  match Lease.complete t.lease ~index with
  | Lease.Duplicate -> Lease.Duplicate
  | Lease.Fresh ->
    t.entries.(index) <- Some entry;
    t.dumps.(index) <- dump;
    (* a recovered entry is already in the journal it came from *)
    if not recovered then Option.iter (fun w -> Journal.append w entry) t.journal;
    Lease.Fresh

(* The one merge. Folding in trial-index order from the same zeros makes the
   collector stats and telemetry independent of completion order, hence of
   the scheduler; on a drained campaign it folds the completed subset — the
   salvage state: partial but internally consistent Tables 5/6, never a mix
   of real and invented trials. [tl_boots] is left to the campaign, which
   fills it from [reboots]. *)
let outcome t ~reboots ~cache =
  let present = List.filter_map Fun.id (Array.to_list t.entries) |> Array.of_list in
  {
    records = Array.map (fun e -> e.Journal.je_record) present;
    traces = Array.map (fun e -> e.Journal.je_trace) present;
    dumps = Array.map (fun e -> t.dumps.(e.Journal.je_index)) present;
    telemetry =
      Array.fold_left
        (fun acc e -> Telemetry.merge acc e.Journal.je_trace.Tracer.tr_telemetry)
        Telemetry.zero present;
    reboots;
    collector =
      Array.fold_left
        (fun acc e -> Collector.merge_stats acc e.Journal.je_stats)
        Collector.zero_stats present;
    cache;
  }
