(** The completed-trial table: the one scheduler and the one merge behind
    every way a campaign runs.

    A table pairs the {!Lease} table, which alone picks the next trial, with
    one slot per trial for its journal entry and crash dump. The in-process
    worker loop ({!Executor}) and the distributed controller are granted
    work by the same rule (the next pending chunk, or wait, or drained) and
    both complete trials here: the first result for an index is stored and appended to the
    campaign journal, any later one is a duplicate and dropped. {!outcome} is
    the single index-order fold that turns the slots into a campaign's
    records, traces, dumps, collector stats and telemetry.

    Not thread-safe: a domain pool serializes every call behind one mutex. *)

type t

type outcome = {
  records : Outcome.record array;
      (** one record per completed trial, in trial-index order regardless of
          completion order *)
  traces : Ferrite_trace.Tracer.trial array;  (** same indexing *)
  dumps : Crash_dump.t option array;
      (** same indexing; [Some] exactly for [Known_crash] records of
          freshly-run trials. Journal-served trials (resume) carry [None]:
          the on-disk format predates dumps. *)
  telemetry : Ferrite_trace.Telemetry.t;
      (** folded from [traces] in index order; every field except [tl_boots]
          (filled by the campaign) is scheduler-independent *)
  reboots : int;  (** summed over workers *)
  collector : Collector.stats;  (** folded in index order *)
  cache : Ferrite_machine.Cache_stats.t;
      (** TLB / dirty-restore / decode-cache counters summed over workers.
          Like [reboots], these depend on scheduling — diagnostics only,
          never folded into records or telemetry *)
}

val create : ?journal:Journal.writer -> ?max_deaths:int -> chunk:int -> int -> t
(** [create ~chunk total] is an empty table over [total] (positive) trials
    whose lease table grants [chunk] at a time. [journal] receives every
    fresh result. [max_deaths] goes to {!Lease.create}; its default (no
    death budget) suits in-process workers, which never die. *)

val lease : t -> Lease.t
(** The lease table: requests, leaves and deaths go straight to it;
    completions go through {!complete}. *)

val complete :
  ?recovered:bool -> t -> Journal.entry -> Crash_dump.t option -> Lease.completion
(** Complete the entry's trial. {!Lease.Fresh} stores the entry and dump and
    appends the entry to the journal — unless [recovered] (default [false])
    says it was read from that journal. {!Lease.Duplicate} (a trial already
    complete, an out-of-range index) changes nothing. *)

val missing : t -> int
(** Trials not yet completed: 0 on a finished campaign, the size of what a
    drain left behind otherwise. *)

val outcome : t -> reboots:int -> cache:Ferrite_machine.Cache_stats.t -> outcome
(** Fold the completed trials in index order. On a finished campaign this is
    the whole campaign; on a drained one it is the salvage state, the
    completed subset. *)
