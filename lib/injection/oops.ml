(* Kernel crash-dump ("oops") rendering.

   The machine-state extraction lives in [Crash_dump]; this module is the
   pretty-printer. [render] captures a structured dump from the live machine
   and formats it, and [render_dump] formats an already-captured dump — the
   same bytes either way, so triage and reporting can work from stored dumps
   without the machine. *)

module System = Ferrite_kernel.System
module Word = Ferrite_machine.Word

let hex = Word.to_hex

let banner = Crash_dump.banner
let stack_overflow_signature = Crash_dump.stack_repeat_signature

let render_registers arch regs =
  let v name = Option.value ~default:0 (List.assoc_opt name regs) in
  match arch with
  | Ferrite_kir.Image.Cisc ->
    String.concat "\n"
      [
        Printf.sprintf "eax: %s   ebx: %s   ecx: %s   edx: %s" (hex (v "eax")) (hex (v "ebx"))
          (hex (v "ecx")) (hex (v "edx"));
        Printf.sprintf "esi: %s   edi: %s   ebp: %s   esp: %s" (hex (v "esi")) (hex (v "edi"))
          (hex (v "ebp")) (hex (v "esp"));
        Printf.sprintf "eip: %s   eflags: %s   cr2: %s" (hex (v "eip")) (hex (v "eflags"))
          (hex (v "cr2"));
      ]
  | Ferrite_kir.Image.Risc ->
    let rows = ref [] in
    for row = 0 to 7 do
      let cells =
        List.init 4 (fun k ->
            let i = (row * 4) + k in
            Printf.sprintf "r%-2d: %s" i (hex (v (Printf.sprintf "r%d" i))))
      in
      rows := String.concat "   " cells :: !rows
    done;
    String.concat "\n"
      (List.rev
         (Printf.sprintf "pc : %s   lr : %s   ctr: %s   cr : %s" (hex (v "pc")) (hex (v "lr"))
            (hex (v "ctr")) (hex (v "cr"))
         :: !rows))

(* Four words per row; every row — including a trailing partial one — starts
   with a single space before each word and ends with a newline. Triage and
   the golden-format test parse this, so the shape is a contract. *)
let stack_rows words =
  let buf = Buffer.create 256 in
  let n = List.length words in
  List.iteri
    (fun i w ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf (match w with Some w -> hex w | None -> "????????");
      if i mod 4 = 3 || i = n - 1 then Buffer.add_char buf '\n')
    words;
  Buffer.contents buf

let stack_dump ?(words = 16) sys =
  Printf.sprintf "Stack: (esp/r1 = %s)\n" (hex (System.sp sys))
  ^ stack_rows (Crash_dump.stack_words ~words sys)

(* ---------- dump pretty-printer ---------- *)

let render_dump (d : Crash_dump.t) =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "%s" d.Crash_dump.cd_banner;
  line "";
  line "%s" (render_registers d.Crash_dump.cd_arch d.Crash_dump.cd_registers);
  line "";
  List.iter (fun l -> line "%s" l) d.Crash_dump.cd_code;
  line "";
  line "Stack: (esp/r1 = %s)" (hex d.Crash_dump.cd_sp);
  Buffer.add_string buf (stack_rows d.Crash_dump.cd_stack_words);
  if d.Crash_dump.cd_backtrace <> [] then begin
    line "Call Trace:";
    List.iter (fun (a, sym) -> line " [<%s>] %s" (hex a) sym) d.Crash_dump.cd_backtrace
  end;
  if d.Crash_dump.cd_events <> [] then begin
    line "Last events:";
    List.iter (fun e -> line "  %s" e) d.Crash_dump.cd_events
  end;
  if d.Crash_dump.cd_stack_repeat then
    line "Note: repeating return-address pattern - stack overflow suspected (Fig. 7)"
  else line "";
  Buffer.contents buf

let render sys fault = render_dump (Crash_dump.capture sys fault)
