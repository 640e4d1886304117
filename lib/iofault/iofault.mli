(** Seeded, deterministic syscall-fault layer.

    Every persistence and transport path in ferrite routes its descriptors
    through this module: a thin handle wraps a [Unix.file_descr] and, when a
    campaign-level fault plan is armed, perturbs each read/write/fsync with
    faults drawn counter-style from the campaign seed — exactly the way
    [Rng.derive] splits trials — so any observed failure is replayable from
    the seed alone.

    When no plan is armed the handle is a passthrough: a call counter bump,
    one match on an immutable field, then the raw syscall. An armed plan
    that draws no fault must be invisible: the @io-chaos-smoke gate checks
    that an armed-but-quiet campaign makes the same read/write/fsync calls,
    and writes the same journal and store bytes, as a disarmed one.

    Fault taxonomy (see DESIGN.md §14):
    - {e retried}: EINTR, EAGAIN, short reads/writes, injected delays —
      absorbed by {!write_fully} with bounded exponential backoff; the
      resulting file/stream bytes are identical to a fault-free run.
    - {e degraded}: ENOSPC (a global byte budget shared by all file handles)
      and persistent EIO — surfaced to the caller, which switches to an
      in-memory spill and reports a salvage state ({!note_salvage}).
    - {e reported}: injected fsync failure — a durability downgrade, logged
      and counted, never fatal.

    The global fault/retry/salvage counters are mutex-protected and folded
    into the CLI report lines. *)

type plan = {
  pl_eintr : float;  (** probability a syscall raises [EINTR] *)
  pl_eagain : float;  (** probability a syscall raises [EAGAIN] *)
  pl_short_write : float;  (** probability a write transfers a strict prefix *)
  pl_short_read : float;  (** probability a read returns fewer bytes *)
  pl_eio : float;  (** probability of a (non-retriable) [EIO] *)
  pl_fsync_fail : float;  (** probability [fsync] fails with [EIO] *)
  pl_delay : float;  (** probability of an injected completion delay *)
  pl_delay_s : float;  (** duration of each injected delay, seconds *)
  pl_enospc_after : int option;
      (** global byte budget across all file handles; once exhausted every
          file write raises [ENOSPC] (the disk stays full) *)
}

val recoverable_plan : plan
(** All-retriable faults at aggressive rates; no ENOSPC, no EIO. Routing a
    writer through this plan must leave its output byte-identical. *)

val plan_of_seed : int64 -> plan
(** The plan of [--harness-fault SEED]: {!recoverable_plan} rates, plus —
    on seeds whose derived bit 0 is set — an ENOSPC onset drawn in
    [16 KiB, 64 KiB). Deterministic in the seed. *)

val arm : ?plan:plan -> seed:int64 -> unit -> unit
(** Arm the ambient fault plan (default [plan_of_seed seed]) and reset the
    counters. Handles wrapped after this draw per-handle fault streams
    derived from [seed] and their label. *)

val disarm : unit -> unit
(** Return to passthrough. Already-wrapped chaotic handles keep their
    streams; newly wrapped handles are passthrough. Counters are kept. *)

val armed : unit -> bool
val armed_seed : unit -> int64 option

type t
(** A wrapped descriptor. *)

val wrap_file : ?label:string -> Unix.file_descr -> t
(** Wrap a regular-file descriptor. File handles participate in the global
    ENOSPC byte budget. Handles with the same label draw distinct but
    deterministic streams (a per-label instance counter). *)

val wrap_stream : ?label:string -> Unix.file_descr -> t
(** Wrap a socket/pipe descriptor: same faults, exempt from ENOSPC. *)

val fd : t -> Unix.file_descr
val chaotic : t -> bool

val read : t -> bytes -> int -> int -> int
(** [read t buf pos len]: like [Unix.read], possibly perturbed (short read,
    EINTR, EAGAIN, delay, EIO per plan). *)

val write_substring : t -> string -> int -> int -> int
(** Like [Unix.write_substring]: a single (possibly perturbed) write. *)

val write_fully : t -> string -> unit
(** Write the whole string, absorbing EINTR/EAGAIN/short writes with
    bounded exponential backoff (each absorption counts one retry).
    Raises the underlying [Unix_error] for ENOSPC/EIO and after the retry
    bound; the caller decides whether to degrade. *)

val fsync : t -> unit
(** May raise [EIO] under an armed plan ([pl_fsync_fail]). *)

val close : t -> unit

type stats = {
  st_faults : int;  (** total faults injected *)
  st_eintr : int;
  st_eagain : int;
  st_short_writes : int;
  st_short_reads : int;
  st_eio : int;
  st_enospc : int;
  st_fsync_fail : int;
  st_delays : int;
  st_retries : int;  (** faults absorbed by retry loops *)
  st_salvages : int;  (** degradation events reported via {!note_salvage} *)
  st_reads : int;  (** {!read} calls through any handle, armed or not *)
  st_writes : int;  (** {!write_substring} calls, including each {!write_fully} attempt *)
  st_fsyncs : int;  (** {!fsync} calls *)
}

val stats : unit -> stats

val reset_stats : unit -> unit
(** Zero every counter, the call counts included ({!arm} does too). *)

val note_retry : unit -> unit
(** Count a retry absorbed by an external retry loop (e.g. the fabric's
    link transmitter). *)

val note_salvage : string -> unit
(** Record a degradation event under a short label ("journal", "store",
    "drain"); shown in the degraded-state banner. *)

val salvage_labels : unit -> string list
(** Labels passed to {!note_salvage}, oldest first, deduplicated. *)

val render_stats : unit -> string
(** One human-readable line, e.g. for the CLI io-chaos report. *)
