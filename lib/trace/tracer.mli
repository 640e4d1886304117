(** Bounded ring-buffer event tracer — one per trial.

    The ring keeps the {e most recent} [trace_capacity] events (flight
    recorder semantics: a hang can emit millions of watchpoint hits and the
    interesting suffix is the one ending in the crash). {!Telemetry}
    counters are exact regardless of drops. Capacity 0 disables event
    retention and keeps only the counters — cheap enough that campaigns
    always run with at least a telemetry-only tracer. *)

type config = { trace_capacity : int  (** max retained events per trial; 0 = counters only *) }

val default_config : config
(** 4096 events per trial. *)

val telemetry_only : config
(** Capacity 0: exact counters, no event retention. *)

val validated : config -> config
(** Raises [Invalid_argument] on a negative capacity. *)

type t

val create : config -> t

val record : t -> Event.stamp -> Event.t -> unit
(** Append an event (dropping the oldest retained one when the ring is full)
    and bump the telemetry counters. *)

val record_with : t -> (unit -> Event.stamp) -> Event.t -> unit
(** {!record}, computing the stamp only if the tracer keeps events: a
    capacity-0 tracer counts the event and never calls [stamp]. *)

val recorded : t -> int
(** Total events ever recorded, including dropped ones. *)

val dropped : t -> int

val events : t -> (Event.stamp * Event.t) list
(** Retained events, oldest first. *)

val telemetry : t -> Telemetry.t
(** Exact counters for this tracer ([tl_boots] is 0 here; the campaign fills
    it from the executor). *)

(** {2 Per-trial result}

    The immutable value a trial hands back to the executor; the executor
    merges these in trial-index order, so campaign traces are identical for
    every executor. *)

type trial = {
  tr_index : int;
  tr_target : string;  (** rendered target description *)
  tr_outcome : string;  (** rendered outcome label *)
  tr_events : (Event.stamp * Event.t) list;
  tr_dropped : int;
  tr_telemetry : Telemetry.t;
}

val trial_of : t -> index:int -> target:string -> outcome:string -> trial
