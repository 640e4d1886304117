type data_hit = { addr : int; is_write : bool }

type watch = { w_addr : int; w_len : int }

type t = {
  mutable instr : int list;  (* armed instruction breakpoint addresses *)
  mutable data : watch list;
}

let slots = 4

let create () = { instr = []; data = [] }

let set_instruction_bp t addr =
  if List.length t.instr >= slots then
    invalid_arg "Debug_regs.set_instruction_bp: all slots armed";
  t.instr <- addr :: t.instr

let set_data_bp t ~addr ~len =
  if len <> 1 && len <> 2 && len <> 4 then
    invalid_arg "Debug_regs.set_data_bp: len must be 1, 2 or 4";
  if List.length t.data >= slots then
    invalid_arg "Debug_regs.set_data_bp: all slots armed";
  t.data <- { w_addr = addr; w_len = len } :: t.data

let clear_all t =
  t.instr <- [];
  t.data <- []

type snapshot = { s_instr : int list; s_data : watch list }

let snapshot t = { s_instr = t.instr; s_data = t.data }

let restore t s =
  t.instr <- s.s_instr;
  t.data <- s.s_data

let[@inline] exec_armed t = t.instr <> []

let[@inline] data_armed t = t.data <> []

let[@inline] check_exec t pc =
  match t.instr with
  | [] -> false
  | [ a ] -> a = pc
  | l -> List.mem pc l

(* Top-level rather than a local closure over the access, so the no-hit path
   (every load/store of an armed run) allocates nothing. *)
let rec scan_data ws ~addr ~len ~is_write =
  match ws with
  | [] -> None
  | w :: rest ->
    if addr < w.w_addr + w.w_len && w.w_addr < addr + len then
      Some { addr = w.w_addr; is_write }
    else scan_data rest ~addr ~len ~is_write

let[@inline] check_data t ~addr ~len ~is_write =
  match t.data with [] -> None | data -> scan_data data ~addr ~len ~is_write
