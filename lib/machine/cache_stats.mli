(** Diagnostic counters for the simulator's fast paths: software-TLB hits,
    decode-cache and superblock-cache activity, and dirty-page restore
    activity.

    These are {e diagnostics}, not architectural state: they are monotonic,
    excluded from {!Memory.snapshot}/[restore], and — like the executor's
    [reboots] count — may differ between [Sequential] and [Parallel] runs of
    the same campaign (each worker warms its own caches). Records, telemetry
    and traces remain executor-independent.

    All counters saturate at [max_int] under {!merge} and never go negative;
    per-trial or per-phase rates must be computed with {!delta} over two
    readings, because the machine-lifetime totals survive every
    snapshot/restore ("logical reboot") and would otherwise conflate one
    trial's activity with the whole campaign's. *)

type t = {
  cs_tlb_hits : int;
  cs_tlb_misses : int;
  cs_restore_fast : int;  (** restores served from the dirty-page list *)
  cs_restore_full : int;  (** restores that walked the whole snapshot *)
  cs_restore_pages : int;  (** pages blitted or re-created across restores *)
  cs_decode_hits : int;
  cs_decode_misses : int;
  cs_decode_warm_hits : int;
      (** decode-cache hits served by entries installed by the post-boot
          pre-warm pass (vs discovered cold during trials) *)
  cs_prewarmed : int;  (** cache entries (decodes + superblocks) pre-warmed *)
  cs_sb_hits : int;  (** superblock entries served from the block cache *)
  cs_sb_blocks : int;  (** superblocks built (the block cache's misses) *)
  cs_sb_insns : int;  (** instructions retired inside superblocks *)
  cs_sb_fallbacks : int;
      (** precise steps taken by the run loop, plus block exits that end on
          a fault, a watchpoint hit or a stop; a taken branch or a
          self-modifying store ends a block without counting here *)
  cs_march_steps : int;
      (** [00 00] wild-march steps the run loop retired in closed form,
          without a decode or a precise step (the CISC [march] hook); the
          step that ends each such run is a precise step *)
}

val zero : t

val merge : t -> t -> t
(** Field-wise sum, saturating at [max_int]: merging never produces a value
    below either operand (overflow-safe monotonicity). *)

val delta : before:t -> after:t -> t
(** Field-wise [after - before], clamped at zero — the per-interval activity
    between two monotonic readings. Clamping covers the one legitimate
    decrease: the reading after a supervisor dropped and re-booted the
    machine starts from fresh (zeroed) counters. *)

val fields : t -> (string * int) list
(** Stable [(name, value)] list for reports and JSON. *)

val tlb_hit_rate : t -> float
(** Hits / (hits + misses), 0.0 when no accesses. *)

val decode_hit_rate : t -> float

val decode_warm_rate : t -> float
(** Fraction of decode hits served by pre-warmed entries. *)

val sb_hit_rate : t -> float
(** Superblock entries served from cache / (served + built). *)

val render : Format.formatter -> t -> unit
