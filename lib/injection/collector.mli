(** The remote crash-data collector.

    The paper's crash handler bypasses the (possibly broken) file system and
    hands UDP-like packets directly to the NIC driver; packets can still be
    lost, and a crash whose dump never arrives is tallied under the
    Hang/Unknown Crash column of Tables 5 and 6. This module simulates that
    lossy channel, hardened with bounded retransmission: each dump carries a
    sequence number, delivered dumps are acked, lost datagrams (or lost acks)
    trigger up to [retries] retransmissions, and the receiver drops duplicate
    sequence numbers. Only a dump {e none} of whose transmissions arrived is
    given up on. *)

type t

val create : ?loss_rate:float -> ?retries:int -> seed:int64 -> unit -> t
(** Default loss rate 3%, default [retries] 0 (single-shot — the original
    channel, RNG-stream-compatible draw for draw). Raises [Invalid_argument]
    on negative [retries]. *)

type delivery = {
  dv_delivered : bool;  (** the receiver holds the dump *)
  dv_retransmits : int;  (** datagrams sent beyond the first *)
  dv_dups : int;  (** duplicate deliveries dropped by sequence-number dedup *)
}

val send_detail : t -> Outcome.crash_info -> Outcome.crash_info option * delivery
(** Ship one dump; [None] when every transmission was lost (the engine
    classifies that crash as Unknown). The {!delivery} report is what the
    engine folds into trace events ({!Ferrite_trace.Event.Collector_retransmit}). *)

val send : t -> Outcome.crash_info -> Outcome.crash_info option
(** [send t info = fst (send_detail t info)]. *)

val received : t -> int
val lost : t -> int

(** {2 Aggregation}

    Campaigns run one collector per trial (seeded from the trial spec, so the
    lossy channel is reproducible in any execution order) and merge the
    delivery tallies afterwards. *)

type stats = {
  st_received : int;  (** unique dumps the receiver holds *)
  st_lost : int;  (** data datagrams lost in flight (including retransmissions) *)
  st_retransmitted : int;  (** retransmissions sent (loss- or lost-ack-triggered) *)
  st_gave_up : int;  (** dumps abandoned after every transmission was lost *)
  st_dup_dropped : int;  (** duplicates dropped by sequence-number dedup *)
  st_by_model : (string * int) list;
      (** delivered dumps per fault-model tag: [[("single_bit", st_received)]],
          or [[]] when nothing was received. Last field: the journal's v1
          stats payload predates it (upgraded on decode by appending the
          legacy breakdown). *)
}

val zero_stats : stats
val stats : t -> stats

val merge_stats : stats -> stats -> stats
(** Component-wise sum: associative and commutative with {!zero_stats} as the
    unit, so per-worker partial tallies can be merged in any order. *)
