(* JSONL export: one JSON object per event, one line per object.

   Schema (documented in README.md): every line carries the stamp fields
     trial, cycles, instructions, pc (hex string), fn (string or null),
     event (the Event.tag)
   plus event-specific payload fields. Addresses are zero-padded lowercase
   hex strings to match the printer and the kernel's own dumps. *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let str s = "\"" ^ escape s ^ "\""
let hex a = Printf.sprintf "\"%08x\"" a
let bool b = if b then "true" else "false"

let payload (ev : Event.t) =
  match ev with
  | Event.Trial_begin { target; _ } -> [ ("target", str target) ]
  | Event.Trial_end { outcome; _ } -> [ ("outcome", str outcome) ]
  | Event.Arm_bp { kind; addr } ->
    [
      ("kind", str (match kind with Event.Instruction -> "instruction" | Event.Data -> "data"));
      ("addr", hex addr);
    ]
  | Event.Flip { space; addr; bit } ->
    [ ("space", str (Event.space_label space)); ("addr", hex addr); ("bit", string_of_int bit) ]
  | Event.Reg_flip { reg; bit } -> [ ("reg", str reg); ("bit", string_of_int bit) ]
  | Event.Reinject { addr; bit } | Event.Restore { addr; bit } ->
    [ ("addr", hex addr); ("bit", string_of_int bit) ]
  | Event.Bp_hit { addr; stray } -> [ ("addr", hex addr); ("stray", bool stray) ]
  | Event.Watch_hit { addr; is_write } -> [ ("addr", hex addr); ("write", bool is_write) ]
  | Event.Activated { via } -> [ ("via", str via) ]
  | Event.Exn_raised { fault } -> [ ("fault", str fault) ]
  | Event.Handler_done { fault; cycles } ->
    [ ("fault", str fault); ("cycles", string_of_int cycles) ]
  | Event.Classified { cause; latency } ->
    [
      ("cause", match cause with Some c -> str c | None -> "null");
      ("latency", string_of_int latency);
    ]
  | Event.Collector_send { delivered } -> [ ("delivered", bool delivered) ]
  | Event.Collector_retransmit { retries } -> [ ("retries", string_of_int retries) ]
  | Event.Watchdog_expired { steps } -> [ ("steps", string_of_int steps) ]
  | Event.Trial_retry { attempt; reason; _ } ->
    [ ("attempt", string_of_int attempt); ("reason", str reason) ]
  | Event.Trial_quarantined { attempts; reason; _ } ->
    [ ("attempts", string_of_int attempts); ("reason", str reason) ]
  | Event.Resume_skip _ -> []

let event_line ~trial ((s : Event.stamp), ev) =
  let fields =
    [
      ("trial", string_of_int trial);
      ("cycles", string_of_int s.Event.s_cycles);
      ("instructions", string_of_int s.Event.s_instructions);
      ("pc", hex s.Event.s_pc);
      ("fn", match s.Event.s_function with Some f -> str f | None -> "null");
      ("event", str (Event.tag ev));
    ]
    @ payload ev
  in
  "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

let trial_lines (tr : Tracer.trial) =
  List.map (event_line ~trial:tr.Tracer.tr_index) tr.Tracer.tr_events

(* Routed through the seeded I/O fault layer: retriable faults are
   absorbed, ENOSPC/EIO degrade to counting (the file keeps its
   newline-terminated prefix, the campaign keeps running). *)
let write_trials_path path trials =
  let module Iofault = Ferrite_iofault.Iofault in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let io = Iofault.wrap_file ~label:"jsonl" fd in
  let degraded = ref false in
  let buf = Buffer.create 65536 in
  let flush_buf () =
    if (not !degraded) && Buffer.length buf > 0 then begin
      try Iofault.write_fully io (Buffer.contents buf)
      with Unix.Unix_error ((Unix.ENOSPC | Unix.EIO), _, _) ->
        degraded := true;
        Iofault.note_salvage "trace";
        Printf.eprintf
          "ferrite: trace %s: write failed; remaining lines dropped, the prefix on disk \
           is complete lines only\n\
           %!"
          path
    end;
    Buffer.clear buf
  in
  List.iter
    (fun tr ->
      List.iter
        (fun line ->
          Buffer.add_string buf line;
          Buffer.add_char buf '\n';
          if Buffer.length buf >= 65536 then flush_buf ())
        (trial_lines tr))
    trials;
  flush_buf ();
  Iofault.close io;
  not !degraded
