(* The remote crash-data collector: a lossy UDP-like channel with bounded
   retransmission, acks and sequence-number dedup.

   Every dump is stamped with a per-collector sequence number. The sender
   transmits up to [1 + retries] datagrams: a datagram is lost in flight with
   probability [loss_rate]; a delivered datagram is acked, and the ack is
   lost with the same probability, which triggers a spurious retransmission
   that the receiver drops as a duplicate of an already-seen sequence number.
   A dump none of whose datagrams arrived is given up on — the crash lands in
   the Hang/Unknown-Crash column exactly as a lost NFTAPE UDP packet did.

   With [retries = 0] (the default) the channel behaves exactly like the
   original single-shot model: one RNG draw per send, loss = give-up. *)

type t = {
  rng : Ferrite_machine.Rng.t;
  loss_rate : float;
  retries : int;
  mutable seq : int;  (* sequence number of the next dump *)
  mutable received : int;
  mutable lost : int;
  mutable retransmitted : int;
  mutable gave_up : int;
  mutable dup_dropped : int;
}

let create ?(loss_rate = 0.03) ?(retries = 0) ~seed () =
  if retries < 0 then invalid_arg "Collector.create: retries must be non-negative";
  {
    rng = Ferrite_machine.Rng.create ~seed;
    loss_rate;
    retries;
    seq = 0;
    received = 0;
    lost = 0;
    retransmitted = 0;
    gave_up = 0;
    dup_dropped = 0;
  }

type delivery = {
  dv_delivered : bool;  (* the receiver holds the dump *)
  dv_retransmits : int;  (* datagrams sent beyond the first *)
  dv_dups : int;  (* duplicate deliveries dropped by seq-number dedup *)
}

let send_detail t info =
  t.seq <- t.seq + 1;
  let delivered = ref false in
  let dups = ref 0 in
  let transmissions = ref 0 in
  let acked = ref false in
  let attempt = ref 0 in
  while (not !acked) && !attempt <= t.retries do
    incr transmissions;
    let data_lost = Ferrite_machine.Rng.float t.rng < t.loss_rate in
    if data_lost then t.lost <- t.lost + 1
    else begin
      (* the receiver dedups by sequence number: only the first arrival of
         this dump counts *)
      if !delivered then begin
        incr dups;
        t.dup_dropped <- t.dup_dropped + 1
      end
      else begin
        delivered := true;
        t.received <- t.received + 1
      end;
      (* the ack only matters if losing it could trigger a retransmission *)
      if !attempt >= t.retries || Ferrite_machine.Rng.float t.rng >= t.loss_rate then
        acked := true
    end;
    incr attempt
  done;
  t.retransmitted <- t.retransmitted + (!transmissions - 1);
  if not !delivered then t.gave_up <- t.gave_up + 1;
  let dv =
    { dv_delivered = !delivered; dv_retransmits = !transmissions - 1; dv_dups = !dups }
  in
  ((if !delivered then Some info else None), dv)

let send t info = fst (send_detail t info)

let received t = t.received
let lost t = t.lost

(* [st_by_model] is last: the journal's v1 stats payload predates it and is
   upgraded by appending the legacy breakdown, so field order is part of the
   on-disk format. Every delivered dump is a single-bit one, so the list is
   derived from [st_received]. *)
type stats = {
  st_received : int;
  st_lost : int;
  st_retransmitted : int;
  st_gave_up : int;
  st_dup_dropped : int;
  st_by_model : (string * int) list;
}

let zero_stats =
  {
    st_received = 0;
    st_lost = 0;
    st_retransmitted = 0;
    st_gave_up = 0;
    st_dup_dropped = 0;
    st_by_model = [];
  }

let by_model received =
  if received > 0 then [ (Fault_model.tag Fault_model.Single_bit_transient, received) ] else []

let stats t =
  {
    st_received = t.received;
    st_lost = t.lost;
    st_retransmitted = t.retransmitted;
    st_gave_up = t.gave_up;
    st_dup_dropped = t.dup_dropped;
    st_by_model = by_model t.received;
  }

let merge_stats a b =
  {
    st_received = a.st_received + b.st_received;
    st_lost = a.st_lost + b.st_lost;
    st_retransmitted = a.st_retransmitted + b.st_retransmitted;
    st_gave_up = a.st_gave_up + b.st_gave_up;
    st_dup_dropped = a.st_dup_dropped + b.st_dup_dropped;
    st_by_model = by_model (a.st_received + b.st_received);
  }
