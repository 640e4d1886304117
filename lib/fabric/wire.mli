(** The fabric wire protocol: one message type, one framing, both directions.

    Every message travels as a {!Ferrite_injection.Journal.frame} —
    [payload_len | crc32 | payload] — so the fabric's checkpoint format {e is}
    the journal's: a {!Result} payload embeds the exact
    {!Ferrite_injection.Journal.encode_entry} bytes the in-process supervisor
    would have appended to a journal file, and a byte stream of fabric results
    torn at any point recovers exactly like a torn journal tail (longest valid
    prefix, {!decode_prefix}).

    Nothing about the campaign crosses the wire. A worker is a forked child
    of its controller and inherits the plan, environment, supervision and
    tracer config as OCaml values; the wire carries only trial-index ranges
    out and results back. Its [Marshal]led payloads (a {!Result}'s dump, a
    {!Bye}'s diagnostics) therefore pass only between one binary and its
    own forked child.

    The codec never trusts the peer: {!decode_prefix} never raises on torn or
    corrupt input, and the incremental {!decoder} used on live links raises
    {!Corrupt} only for a {e complete} frame whose payload is undecodable —
    which on a stream socket means a peer bug, not a torn tail.

    Scheduling takes two messages: an idle worker asks ({!Lease_request})
    and the controller grants ({!Lease_grant}) by the lease table's one
    rule, the rule the in-process executors follow. No message moves work
    between workers: a lease stays its holder's until it finishes, leaves
    or is declared dead.

    Every link is a reliable, ordered byte stream (a socketpair), so the
    protocol carries no sequence numbers, acknowledgements or
    retransmissions: a message either arrives once, in order, or the link
    dies and the controller's death path takes over. *)

module Journal = Ferrite_injection.Journal
module Crash_dump = Ferrite_injection.Crash_dump

(** {2 Messages} *)

type bye_stats = {
  by_reboots : int;  (** the worker's boot count (diagnostic) *)
  by_cache : Ferrite_machine.Cache_stats.t;
  by_leases : int;  (** leases the worker completed *)
}
(** A worker's parting diagnostics. Lost with the worker when it is killed —
    like [reboots]/[cache] under the domain-pool executor, these never feed
    records or telemetry. *)

type msg =
  | Lease_request
      (** worker → controller: I am idle, grant me a chunk. Resent every
          30 ms until a grant arrives; the controller answers every copy it
          can grant. *)
  | Lease_grant of { lg_lease : int; lg_lo : int; lg_hi : int }
      (** controller → worker: run trials [lg_lo, lg_hi) under lease
          [lg_lease]. A lease still live is re-granted verbatim to its
          holder, so the worker's resent requests draw copies of a grant it
          has already accepted. Lease ids only grow, so the worker ignores
          any grant whose id is not above the last one it accepted. *)
  | Result of {
      rs_index : int;  (** trial index — the controller's dedup key *)
      rs_entry : Journal.entry;
      rs_dump : Crash_dump.t option;
          (** crash dumps ride alongside the journal entry: the journal's
              on-disk format predates dumps, but the result store needs them,
              so the wire carries what the file format cannot *)
    }  (** worker → controller, one per executed trial *)
  | Heartbeat
      (** worker → controller: I am alive and making progress. Sent on a
          timer between trials; a worker silent past the controller's
          heartbeat deadline is declared {e hung} and treated exactly like a
          dead one (leases reclaimed, trials re-granted), even if the
          process still exists — a spin-looped worker must not stall the
          campaign. *)
  | Bye of { bye_stats : bye_stats option }
      (** orderly shutdown. Controller → worker carries [None] (campaign
          drained); worker → controller carries [Some] diagnostics. *)

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
