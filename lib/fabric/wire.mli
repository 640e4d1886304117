(** The fabric wire protocol: one message type, one framing, both directions.

    Every message travels as a {!Ferrite_injection.Journal.frame} —
    [payload_len | crc32 | payload] — so the fabric's checkpoint format {e is}
    the journal's: a {!Result} payload embeds the exact
    {!Ferrite_injection.Journal.encode_entry} bytes the in-process supervisor
    would have appended to a journal file, and a byte stream of fabric results
    torn at any point recovers exactly like a torn journal tail (longest valid
    prefix, {!decode_prefix}).

    The codec never trusts the peer: {!decode_prefix} never raises on torn or
    corrupt input, and the incremental {!decoder} used on live links raises
    {!Corrupt} only for a {e complete} frame whose payload is undecodable —
    which on a TCP-like stream socket means a peer bug, not a torn tail. *)

module Journal = Ferrite_injection.Journal
module Campaign = Ferrite_injection.Campaign
module Supervisor = Ferrite_injection.Supervisor
module Crash_dump = Ferrite_injection.Crash_dump

val protocol_version : int

(** {2 Messages} *)

type wire_chaos = {
  wc_drop : float;  (** per-message loss probability *)
  wc_dup : float;  (** duplication probability *)
  wc_reorder : float;  (** hold-one-back swap probability *)
}
(** Seeded message-level chaos applied by {!Link} senders — the fabric
    analogue of the collector's lossy UDP channel. *)

val validated_chaos : wire_chaos -> wire_chaos
(** Raises [Invalid_argument] unless each rate is in [0, 1] and they sum to
    at most 1. *)

val chaos_of_seed : int64 -> wire_chaos * int64
(** The link half of a harness-fault seed ([--harness-fault SEED]; the I/O
    half is {!Ferrite_iofault.Iofault.plan_of_seed}): drop, duplicate and
    reorder rates drawn in [0, 0.2], [0, 0.1] and [0, 0.1], the ranges the
    fabric converges under in its tests, and the seed of the links' chaos
    streams. Deterministic in the seed. *)

type bye_stats = {
  by_reboots : int;  (** the worker's boot count (diagnostic) *)
  by_cache : Ferrite_machine.Cache_stats.t;
  by_retransmitted : int;  (** result frames re-sent beyond the first *)
  by_leases : int;  (** leases the worker completed *)
}
(** A worker's parting diagnostics. Lost with the worker when it is killed —
    like [reboots]/[cache] under the domain-pool executor, these never feed
    records or telemetry. *)

type welcome = {
  w_worker : int;  (** controller-assigned worker id *)
  w_total : int;  (** campaign trial count *)
  w_config : Campaign.config;
      (** the full campaign config — workers re-derive the plan and
          environment locally ({!Campaign.plan}, {!Campaign.environment});
          trial specs themselves never cross the wire (they close over
          workload code) *)
  w_policy : Supervisor.policy;
  w_chaos : Supervisor.chaos;
  w_tracer : Ferrite_trace.Tracer.config;
  w_wire_chaos : wire_chaos option;  (** chaos the {e worker} applies when sending *)
  w_wire_seed : int64;  (** seed for the worker's chaos stream *)
}

type msg =
  | Hello of { h_pid : int; h_protocol : int }
      (** worker → controller, first message on a fresh link *)
  | Welcome of welcome  (** controller → worker, the campaign briefing *)
  | Lease_request of { lr_results : int }
      (** worker → controller: I am idle, grant me a chunk. [lr_results]
          counts the results the worker has sent. Resent until a grant
          arrives; the controller answers every copy. *)
  | Lease_grant of { lg_lease : int; lg_lo : int; lg_hi : int; lg_results : int }
      (** controller → worker: run trials [lg_lo, lg_hi) under lease
          [lg_lease]; [lg_results] echoes the request's [lr_results]. A lease
          the worker already accepted is re-granted verbatim while the
          controller counts it live. The worker acts on that only if it has
          finished the lease and [lg_results] is at least its count then: a
          result or a steal return was lost, so it retransmits its unacked
          results below [lg_results] or runs the returned tail. Any other
          re-grant is stale and ignored. *)
  | Steal of { st_lease : int }
      (** controller → victim: another worker is idle — return the unstarted
          tail of lease [st_lease] *)
  | Steal_return of { sr_lease : int; sr_lo : int; sr_hi : int }
      (** victim → controller: [sr_lo, sr_hi) of the lease is yours to
          reassign (empty range = nothing to give) *)
  | Result of {
      rs_seq : int;  (** per-worker sequence number, echoed by {!Ack} *)
      rs_index : int;  (** trial index — the controller's dedup key *)
      rs_entry : Journal.entry;
      rs_dump : Crash_dump.t option;
          (** crash dumps ride alongside the journal entry: the journal's
              on-disk format predates dumps, but the result store needs them,
              so the wire carries what the file format cannot *)
    }
      (** worker → controller; kept until acked, resent when a re-grant
          shows it lost and on leaving *)
  | Ack of { ak_seq : int }  (** controller → worker, per received {!Result} *)
  | Heartbeat of { hb_worker : int }
      (** worker → controller: I am alive and making progress. Sent on a
          timer between trials; a worker silent past the controller's
          heartbeat deadline is declared {e hung} and treated exactly like a
          dead one (leases reclaimed, trials re-granted), even if the
          process still exists — a spin-looped worker must not stall the
          campaign. *)
  | Bye of { bye_stats : bye_stats option }
      (** orderly shutdown. Controller → worker carries [None] (campaign
          drained); worker → controller carries [Some] diagnostics. *)

val chaos_eligible : msg -> bool
(** Messages the chaos {!Link} may drop/duplicate/reorder: lease, steal,
    result, ack and heartbeat traffic — everything the retry protocol is
    built to survive. {!Hello}, {!Welcome} and {!Bye} are exempt: the handshake runs
    before any retransmission machinery exists, and a worker that dies
    instead of saying [Bye] is already covered by the death path (its link's
    EOF, or the heartbeat deadline). *)

(** {2 Codec} *)

val encode_payload : msg -> string
(** Unframed payload: a tag byte plus the message body. *)

val decode_payload : string -> msg option
(** Inverse of {!encode_payload}; [None] on any undecodable payload. *)

val encode : msg -> string
(** [Journal.frame (encode_payload m)] — the bytes that go on the wire. *)

val decode_prefix : string -> msg list * int
(** [decode_prefix bytes] walks the longest valid prefix of framed messages
    and returns them with the number of bytes consumed. Never raises: a torn
    frame, a CRC mismatch or an undecodable payload stops the walk exactly
    like journal recovery stops at a torn tail. *)

(** {2 Incremental decoding (live links)} *)

exception Corrupt of string
(** A complete frame arrived whose CRC or payload is invalid. On a stream
    socket this cannot be a torn tail — it is a peer speaking a different
    protocol, and the connection must be treated as dead. *)

type decoder

val decoder : unit -> decoder

val feed : decoder -> bytes -> int -> unit
(** [feed d buf n] appends the first [n] bytes of [buf] to the decoder. *)

val next : decoder -> msg option
(** The next complete message, if one is buffered. Raises {!Corrupt} for a
    complete-but-invalid frame. *)
