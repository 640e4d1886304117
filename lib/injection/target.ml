open Ferrite_machine
module System = Ferrite_kernel.System
module Abi = Ferrite_kernel.Abi
module Image = Ferrite_kir.Image
module KLayout = Ferrite_kir.Layout

type t =
  | Code_target of { fn : string; addr : int; bit : int }
  | Stack_target of { task : int; addr : int; bit : int }
  | Data_target of { addr : int; bit : int }
  | Reg_target of { index : int; name : string; bit : int; at_instr : int }

type kind = Code | Stack | Data | Register

type targeting = Uniform

let kind_of = function
  | Code_target _ -> Code
  | Stack_target _ -> Stack
  | Data_target _ -> Data
  | Reg_target _ -> Register

let describe = function
  | Code_target { fn; addr; bit } -> Printf.sprintf "code %s@%s bit %d" fn (Word.to_hex addr) bit
  | Stack_target { task; addr; bit } ->
    Printf.sprintf "stack task%d %s bit %d" task (Word.to_hex addr) bit
  | Data_target { addr; bit } -> Printf.sprintf "data %s bit %d" (Word.to_hex addr) bit
  | Reg_target { name; bit; at_instr; _ } ->
    Printf.sprintf "register %s bit %d @instr %d" name bit at_instr

(* Instruction boundaries of a function (for CISC, by decoding the actual
   stream; for RISC, every word). *)
let instruction_boundaries sys (f : Image.func_sym) =
  match sys.System.arch with
  | Image.Risc -> List.init (f.Image.fs_size / 4) (fun i -> (f.Image.fs_addr + (4 * i), 4))
  | Image.Cisc ->
    let fetch addr = Memory.peek8 sys.System.mem addr in
    let rec go addr acc =
      if addr >= f.Image.fs_addr + f.Image.fs_size then List.rev acc
      else
        match Ferrite_cisc.Decode.decode ~fetch addr with
        | d -> go (addr + d.Ferrite_cisc.Insn.length) ((addr, d.Ferrite_cisc.Insn.length) :: acc)
        | exception _ -> List.rev acc
    in
    go f.Image.fs_addr []

(* An empty hot distribution or a zero/NaN weight would crash deep inside
   [Rng.pick_weighted] or, worse, sample garbage. Validate before any RNG
   draw so a bad profile is an [Invalid_argument] with a usable message and
   consumes no randomness. *)
let validate_hot hot =
  if hot = [] then invalid_arg "Target.generate: hot distribution is empty";
  List.iter
    (fun (name, w) ->
      if not (Float.is_finite w) || w <= 0. then
        invalid_arg
          (Printf.sprintf "Target.generate: hot distribution has non-positive weight %h for %S"
             w name))
    hot

let code_target sys ~hot rng =
  let fn = Rng.pick_weighted rng (Array.of_list hot) in
  let f = Image.find_func sys.System.image fn in
  let bounds = instruction_boundaries sys f in
  let addr, len = List.nth bounds (Rng.int rng (List.length bounds)) in
  Code_target { fn; addr; bit = Rng.int rng (8 * len) }

(* Stack targets: a word near the chosen task's live stack region (its saved
   stack pointer, or the running SP for the current task), biased into the
   frames actually in use. *)
let stack_target sys rng =
  let task = Rng.int rng Abi.ntasks in
  let lo, hi = System.task_stack_range sys task in
  let sp =
    match System.current_task_index sys with
    | Some i when i = task -> System.sp sys
    | _ -> System.task_field sys task "sp"
  in
  let sp = if sp >= lo && sp < hi then sp else lo + (Abi.stack_size / 2) in
  (* Half the targets land in the live frames near the stack pointer, half
     anywhere in the 8 KiB stack — deep, currently unused stack gives the
     paper its substantial not-activated fraction. *)
  let region_lo = if Rng.bool rng then max lo (sp - 128) else lo in
  let region_lo = region_lo land lnot 3 in
  let words = (hi - region_lo) / 4 in
  let addr = region_lo + (4 * Rng.int rng (max 1 words)) in
  Stack_target { task; addr; bit = Rng.int rng 32 }

(* Kernel-data ranges: every global except the regions that stand in for user
   pages (mailbox, user_buffers) and for the device (disk). *)
let data_ranges sys =
  let ds = sys.System.image.Image.img_data in
  List.filter_map
    (fun (g : KLayout.placed_global) ->
      match g.KLayout.pg_name with
      | "mailbox" | "user_buffers" | "disk" -> None
      | _ -> Some (g.KLayout.pg_addr, g.KLayout.pg_size))
    ds.KLayout.ds_globals

let data_target sys rng =
  let ranges = Array.of_list (data_ranges sys) in
  let addr, size = Rng.pick_weighted rng (Array.map (fun (a, s) -> ((a, s), float_of_int s)) ranges) in
  let word = addr + (4 * Rng.int rng (max 1 (size / 4))) in
  Data_target { addr = word; bit = Rng.int rng 32 }

let register_target sys rng =
  let regs = System.system_registers sys in
  let index = Rng.int rng (Array.length regs) in
  let r = regs.(index) in
  Reg_target
    {
      index;
      name = r.System.name;
      bit = Rng.int rng r.System.bits;
      at_instr = 1_000 + Rng.int rng 10_000;
    }

let generate sys kind ?(targeting = Uniform) ~hot rng =
  let Uniform = targeting in
  match kind with
  | Code ->
    validate_hot hot;
    code_target sys ~hot rng
  | Stack -> stack_target sys rng
  | Data -> data_target sys rng
  | Register -> register_target sys rng
