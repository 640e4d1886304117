module Journal = Ferrite_injection.Journal
module Campaign = Ferrite_injection.Campaign
module Supervisor = Ferrite_injection.Supervisor
module Crash_dump = Ferrite_injection.Crash_dump

let protocol_version = 3

(* Same ceiling as the journal's frame walk: a length field beyond this is
   garbage, not a message we have not finished receiving. *)
let max_payload = 64 * 1024 * 1024

type wire_chaos = { wc_drop : float; wc_dup : float; wc_reorder : float }

let validated_chaos c =
  let rate name r =
    if not (r >= 0.0 && r <= 1.0) then
      invalid_arg (Printf.sprintf "Wire.validated_chaos: %s=%g outside [0,1]" name r)
  in
  rate "drop" c.wc_drop;
  rate "dup" c.wc_dup;
  rate "reorder" c.wc_reorder;
  if c.wc_drop +. c.wc_dup +. c.wc_reorder > 1.0 then
    invalid_arg "Wire.validated_chaos: rates sum past 1";
  c

(* Draws 0 and 1 of a seed pick its I/O fault plan (Iofault.plan_of_seed);
   the link half starts at draw 2 so the two halves stay independent. *)
let chaos_of_seed seed =
  let draw i = Ferrite_machine.Rng.derive ~seed ~index:(2 + i) in
  let rate i ceiling = ceiling *. Ferrite_machine.Rng.(float (create ~seed:(draw i))) in
  ({ wc_drop = rate 0 0.2; wc_dup = rate 1 0.1; wc_reorder = rate 2 0.1 }, draw 3)

type bye_stats = {
  by_reboots : int;
  by_cache : Ferrite_machine.Cache_stats.t;
  by_retransmitted : int;
  by_leases : int;
}

type welcome = {
  w_worker : int;
  w_total : int;
  w_config : Campaign.config;
  w_policy : Supervisor.policy;
  w_chaos : Supervisor.chaos;
  w_tracer : Ferrite_trace.Tracer.config;
  w_wire_chaos : wire_chaos option;
  w_wire_seed : int64;
}

type msg =
  | Hello of { h_pid : int; h_protocol : int }
  | Welcome of welcome
  | Lease_request of { lr_results : int }
  | Lease_grant of { lg_lease : int; lg_lo : int; lg_hi : int; lg_results : int }
  | Steal of { st_lease : int }
  | Steal_return of { sr_lease : int; sr_lo : int; sr_hi : int }
  | Result of {
      rs_seq : int;
      rs_index : int;
      rs_entry : Journal.entry;
      rs_dump : Crash_dump.t option;
    }
  | Ack of { ak_seq : int }
  | Heartbeat of { hb_worker : int }
  | Bye of { bye_stats : bye_stats option }

(* The handshake and goodbye are exempt: chaos starts only once the retry
   machinery (lease re-request, verbatim re-grant, result retransmit) that
   absorbs it is live. *)
let chaos_eligible = function
  | Hello _ | Welcome _ | Bye _ -> false
  | Lease_request _ | Lease_grant _ | Steal _ | Steal_return _ | Result _ | Ack _
  | Heartbeat _ ->
    true

(* {2 Encoding} *)

let put_u32 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))

let get_u32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let encode_payload msg =
  let b = Buffer.create 64 in
  (match msg with
  | Hello { h_pid; h_protocol } ->
    Buffer.add_char b 'H';
    put_u32 b h_pid;
    put_u32 b h_protocol
  | Welcome w ->
    Buffer.add_char b 'W';
    Buffer.add_string b (Marshal.to_string w [])
  | Lease_request { lr_results } ->
    Buffer.add_char b 'L';
    put_u32 b lr_results
  | Lease_grant { lg_lease; lg_lo; lg_hi; lg_results } ->
    Buffer.add_char b 'G';
    put_u32 b lg_lease;
    put_u32 b lg_lo;
    put_u32 b lg_hi;
    put_u32 b lg_results
  | Steal { st_lease } ->
    Buffer.add_char b 'S';
    put_u32 b st_lease
  | Steal_return { sr_lease; sr_lo; sr_hi } ->
    Buffer.add_char b 'T';
    put_u32 b sr_lease;
    put_u32 b sr_lo;
    put_u32 b sr_hi
  | Result { rs_seq; rs_index; rs_entry; rs_dump } ->
    (* the entry blob is the journal's own payload encoding: a fabric result
       in flight is a journal frame whose file has not been written yet *)
    let entry = Journal.encode_entry rs_entry in
    Buffer.add_char b 'R';
    put_u32 b rs_seq;
    put_u32 b rs_index;
    put_u32 b (String.length entry);
    Buffer.add_string b entry;
    Buffer.add_string b (Marshal.to_string rs_dump [])
  | Ack { ak_seq } ->
    Buffer.add_char b 'A';
    put_u32 b ak_seq
  | Heartbeat { hb_worker } ->
    Buffer.add_char b 'K';
    put_u32 b hb_worker
  | Bye { bye_stats } ->
    Buffer.add_char b 'B';
    Buffer.add_string b (Marshal.to_string bye_stats []));
  Buffer.contents b

let unmarshal_from s off : 'a option =
  if String.length s - off < Marshal.header_size then None
  else
    let need = Marshal.total_size (Bytes.unsafe_of_string s) off in
    if String.length s - off <> need then None
    else match Marshal.from_string s off with v -> Some v | exception _ -> None

let decode_payload s =
  let n = String.length s in
  if n = 0 then None
  else
    let fixed len k = if n = len + 1 then k () else None in
    match s.[0] with
    | 'H' ->
      fixed 8 (fun () -> Some (Hello { h_pid = get_u32 s 1; h_protocol = get_u32 s 5 }))
    | 'W' -> (
      match (unmarshal_from s 1 : welcome option) with
      | Some w -> Some (Welcome w)
      | None -> None)
    | 'L' -> fixed 4 (fun () -> Some (Lease_request { lr_results = get_u32 s 1 }))
    | 'G' ->
      fixed 16 (fun () ->
          Some
            (Lease_grant
               {
                 lg_lease = get_u32 s 1;
                 lg_lo = get_u32 s 5;
                 lg_hi = get_u32 s 9;
                 lg_results = get_u32 s 13;
               }))
    | 'S' -> fixed 4 (fun () -> Some (Steal { st_lease = get_u32 s 1 }))
    | 'T' ->
      fixed 12 (fun () ->
          Some
            (Steal_return
               { sr_lease = get_u32 s 1; sr_lo = get_u32 s 5; sr_hi = get_u32 s 9 }))
    | 'R' ->
      if n < 13 then None
      else
        let elen = get_u32 s 9 in
        if elen < 0 || n < 13 + elen then None
        else (
          match Journal.decode_entry (String.sub s 13 elen) with
          | None -> None
          | Some rs_entry -> (
            match (unmarshal_from s (13 + elen) : Crash_dump.t option option) with
            | None -> None
            | Some rs_dump ->
              Some (Result { rs_seq = get_u32 s 1; rs_index = get_u32 s 5; rs_entry; rs_dump })))
    | 'A' -> fixed 4 (fun () -> Some (Ack { ak_seq = get_u32 s 1 }))
    | 'K' -> fixed 4 (fun () -> Some (Heartbeat { hb_worker = get_u32 s 1 }))
    | 'B' -> (
      match (unmarshal_from s 1 : bye_stats option option) with
      | Some bye_stats -> Some (Bye { bye_stats })
      | None -> None)
    | _ -> None

let encode msg = Journal.frame (encode_payload msg)

(* {2 Frame walking} *)

(* One frame at [off]: [Complete (msg, next_off)] | [Partial] (need more
   bytes) | [Invalid] (bad length, CRC or payload). The same three-way split
   serves [decode_prefix] (Partial and Invalid both stop the walk) and the
   live decoder (Partial waits, Invalid raises). *)
type parse = Complete of msg * int | Partial | Invalid of string

let parse_frame s off =
  let n = String.length s in
  if n - off < 8 then Partial
  else
    let len = get_u32 s off in
    if len < 0 || len > max_payload then Invalid "frame length out of range"
    else if n - off - 8 < len then Partial
    else
      let crc = get_u32 s (off + 4) in
      let payload = String.sub s (off + 8) len in
      if Journal.crc32 payload <> crc then Invalid "frame CRC mismatch"
      else
        match decode_payload payload with
        | Some m -> Complete (m, off + 8 + len)
        | None -> Invalid "undecodable payload"

let decode_prefix s =
  let rec walk acc off =
    match parse_frame s off with
    | Complete (m, off') -> walk (m :: acc) off'
    | Partial | Invalid _ -> (List.rev acc, off)
  in
  walk [] 0

(* {2 Incremental decoder} *)

exception Corrupt of string

type decoder = { mutable dc_buf : string; mutable dc_off : int }

let decoder () = { dc_buf = ""; dc_off = 0 }

let feed d buf n =
  if n > 0 then begin
    let tail = String.sub d.dc_buf d.dc_off (String.length d.dc_buf - d.dc_off) in
    d.dc_buf <- tail ^ Bytes.sub_string buf 0 n;
    d.dc_off <- 0
  end

let next d =
  match parse_frame d.dc_buf d.dc_off with
  | Partial -> None
  | Invalid reason -> raise (Corrupt reason)
  | Complete (m, off') ->
    d.dc_off <- off';
    Some m
