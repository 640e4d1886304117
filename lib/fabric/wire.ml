module Journal = Ferrite_injection.Journal
module Crash_dump = Ferrite_injection.Crash_dump

(* Same ceiling as the journal's frame walk: a length field beyond this is
   garbage, not a message we have not finished receiving. *)
let max_payload = 64 * 1024 * 1024

type bye_stats = {
  by_reboots : int;
  by_cache : Ferrite_machine.Cache_stats.t;
  by_leases : int;
}

type msg =
  | Lease_request
  | Lease_grant of { lg_lease : int; lg_lo : int; lg_hi : int }
  | Result of {
      rs_index : int;
      rs_entry : Journal.entry;
      rs_dump : Crash_dump.t option;
    }
  | Heartbeat
  | Bye of { bye_stats : bye_stats option }

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
  | Lease_request -> Buffer.add_char b 'L'
  | Lease_grant { lg_lease; lg_lo; lg_hi } ->
    Buffer.add_char b 'G';
    put_u32 b lg_lease;
    put_u32 b lg_lo;
    put_u32 b lg_hi
  | Result { rs_index; rs_entry; rs_dump } ->
    (* the entry blob is the journal's own payload encoding: a fabric result
       in flight is a journal frame whose file has not been written yet *)
    let entry = Journal.encode_entry rs_entry in
    Buffer.add_char b 'R';
    put_u32 b rs_index;
    put_u32 b (String.length entry);
    Buffer.add_string b entry;
    Buffer.add_string b (Marshal.to_string rs_dump [])
  | Heartbeat -> Buffer.add_char b 'K'
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
    | 'L' -> fixed 0 (fun () -> Some Lease_request)
    | 'G' ->
      fixed 12 (fun () ->
          Some (Lease_grant { lg_lease = get_u32 s 1; lg_lo = get_u32 s 5; lg_hi = get_u32 s 9 }))
    | 'R' ->
      if n < 9 then None
      else
        let elen = get_u32 s 5 in
        if elen < 0 || n < 9 + elen then None
        else (
          match Journal.decode_entry (String.sub s 9 elen) with
          | None -> None
          | Some rs_entry -> (
            match (unmarshal_from s (9 + elen) : Crash_dump.t option option) with
            | None -> None
            | Some rs_dump -> Some (Result { rs_index = get_u32 s 1; rs_entry; rs_dump })))
    | 'K' -> fixed 0 (fun () -> Some Heartbeat)
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
