open Ferrite_machine
module Image = Ferrite_kir.Image
module Layout = Ferrite_kir.Layout

type fault =
  | Cisc_fault of Ferrite_cisc.Exn.t
  | Risc_fault of Ferrite_risc.Exn.t

type 'fault step = 'fault Step.result =
  | Retired
  | Halted
  | Hit_ibp
  | Hit_dbp of Debug_regs.data_hit
  | Stopped
  | Faulted of 'fault

type step_result = fault step

type cpu = Ccpu of Ferrite_cisc.Cpu.t | Rcpu of Ferrite_risc.Cpu.t

type t = {
  arch : Image.arch;
  image : Image.t;
  mem : Memory.t;
  cpu : cpu;
}

let arch_name t = match t.arch with Image.Cisc -> "P4" | Image.Risc -> "G4"

(* The CPUs' results differ only in the fault they carry. *)
let[@inline] lift wrap = function
  | Faulted e -> Faulted (wrap e)
  | (Retired | Halted | Hit_ibp | Hit_dbp _ | Stopped) as r -> r

let cisc e = Cisc_fault e
let risc e = Risc_fault e

let step ?(skip_ibp = false) t =
  match t.cpu with
  | Ccpu c -> lift cisc (Ferrite_cisc.Cpu.step ~skip_ibp c)
  | Rcpu r -> lift risc (Ferrite_risc.Cpu.step ~skip_ibp r)

let run t ~max_steps =
  match t.cpu with
  | Ccpu c -> lift cisc (Ferrite_cisc.Cpu.run c ~max_steps)
  | Rcpu r -> lift risc (Ferrite_risc.Cpu.run r ~max_steps)

let run_retired t =
  match t.cpu with
  | Ccpu c -> Ferrite_cisc.Cpu.run_retired c
  | Rcpu r -> Ferrite_risc.Cpu.run_retired r

let superblocks_on t =
  match t.cpu with
  | Ccpu c -> Ferrite_cisc.Cpu.superblocks_on c
  | Rcpu r -> Ferrite_risc.Cpu.superblocks_on r

let prewarm t =
  let funcs =
    Array.fold_right
      (fun (f : Image.func_sym) acc ->
        if f.Image.fs_size > 0 then (f.Image.fs_addr, f.Image.fs_size) :: acc
        else acc)
      t.image.Image.img_funcs []
  in
  match t.cpu with
  | Ccpu c -> Ferrite_cisc.Cpu.prewarm c funcs
  | Rcpu r -> Ferrite_risc.Cpu.prewarm r funcs

let pc t = match t.cpu with Ccpu c -> c.Ferrite_cisc.Cpu.eip | Rcpu r -> r.Ferrite_risc.Cpu.pc

let set_pc t v =
  match t.cpu with
  | Ccpu c -> c.Ferrite_cisc.Cpu.eip <- v
  | Rcpu r -> r.Ferrite_risc.Cpu.pc <- v

let sp t =
  match t.cpu with
  | Ccpu c -> c.Ferrite_cisc.Cpu.regs.(Ferrite_cisc.Cpu.esp)
  | Rcpu r -> r.Ferrite_risc.Cpu.gpr.(1)

let counters t =
  match t.cpu with
  | Ccpu c -> c.Ferrite_cisc.Cpu.counters
  | Rcpu r -> r.Ferrite_risc.Cpu.counters

let debug_regs t =
  match t.cpu with Ccpu c -> c.Ferrite_cisc.Cpu.dr | Rcpu r -> r.Ferrite_risc.Cpu.dr

let peek32 t addr =
  match t.arch with
  | Image.Cisc -> Memory.peek32_le t.mem addr
  | Image.Risc -> Memory.peek32_be t.mem addr

let poke32 t addr v =
  match t.arch with
  | Image.Cisc -> Memory.poke32_le t.mem addr v
  | Image.Risc -> Memory.poke32_be t.mem addr v

let peek8 t addr = Memory.peek8 t.mem addr
let poke8 t addr v = Memory.poke8 t.mem addr v

let symbol t name = Image.symbol t.image name

let global t name = peek32 t (symbol t name)

let set_global t name v = poke32 t (symbol t name) v

type sysreg = { name : string; bits : int; get : unit -> int; set : int -> unit }

let system_registers t =
  match t.cpu with
  | Ccpu c ->
    Array.map
      (fun (r : Ferrite_cisc.Cpu.sysreg) ->
        {
          name = r.Ferrite_cisc.Cpu.sr_name;
          bits = r.sr_bits;
          get = (fun () -> r.sr_get c);
          set = (fun v -> r.sr_set c v);
        })
      Ferrite_cisc.Cpu.system_registers
  | Rcpu rc ->
    Array.map
      (fun (r : Ferrite_risc.Cpu.sysreg) ->
        {
          name = r.Ferrite_risc.Cpu.sr_name;
          bits = r.sr_bits;
          get = (fun () -> r.sr_get rc);
          set = (fun v -> r.sr_set rc v);
        })
      Ferrite_risc.Cpu.system_registers

let task_layout t = Layout.layout_struct t.image.Image.img_mode Abi.task_struct

let task_struct_addr _t i = Abi.task_addr i

let task_field t i fname =
  let sl = task_layout t in
  let fl = Layout.field_of sl fname in
  let addr = task_struct_addr t i + fl.Layout.fl_offset in
  match fl.Layout.fl_ty, t.arch with
  | Ferrite_kir.Ir.I32, _ -> peek32 t addr
  | Ferrite_kir.Ir.I8, _ -> peek8 t addr
  | Ferrite_kir.Ir.I16, Image.Cisc -> peek8 t addr lor (peek8 t (addr + 1) lsl 8)
  | Ferrite_kir.Ir.I16, Image.Risc -> (peek8 t addr lsl 8) lor peek8 t (addr + 1)

let task_stack_range _t i = (Abi.stack_lo_of_task i, Abi.stack_lo_of_task i + Abi.stack_size)

let current_task_index t =
  let cur = global t "current" in
  let base = Abi.stack_base in
  if cur < base || cur >= base + (Abi.ntasks * Abi.stack_size) then None
  else if (cur - base) mod Abi.stack_size <> 0 then None
  else Some ((cur - base) / Abi.stack_size)

let idle_cycles t n = Counters.idle (counters t) n

let cache_stats t =
  let cpu =
    match t.cpu with
    | Ccpu c -> Ferrite_cisc.Cpu.cache_stats c
    | Rcpu r -> Ferrite_risc.Cpu.cache_stats r
  in
  Cache_stats.merge (Memory.cache_stats t.mem) cpu

(* --- snapshot/restore ------------------------------------------------- *)

type cpu_snapshot =
  | Csnap of Ferrite_cisc.Cpu.snapshot
  | Rsnap of Ferrite_risc.Cpu.snapshot

type snapshot = { sn_mem : Memory.snapshot; sn_cpu : cpu_snapshot }

let snapshot t =
  let sn_cpu =
    match t.cpu with
    | Ccpu c -> Csnap (Ferrite_cisc.Cpu.snapshot c)
    | Rcpu r -> Rsnap (Ferrite_risc.Cpu.snapshot r)
  in
  { sn_mem = Memory.snapshot t.mem; sn_cpu }

let restore_cpu cpu s =
  match cpu, s.sn_cpu with
  | Ccpu c, Csnap sc -> Ferrite_cisc.Cpu.restore c sc
  | Rcpu r, Rsnap sr -> Ferrite_risc.Cpu.restore r sr
  | _ -> invalid_arg "System.restore: snapshot from the other architecture"

let restore t s =
  restore_cpu t.cpu s;
  Memory.restore t.mem s.sn_mem

let of_snapshot ~image ~cpu s =
  let mem = Memory.of_snapshot s.sn_mem in
  let t = { arch = image.Image.img_arch; image; mem; cpu = cpu mem } in
  restore_cpu t.cpu s;
  t
