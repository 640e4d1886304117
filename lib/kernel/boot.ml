open Ferrite_machine
module Image = Ferrite_kir.Image
module KLayout = Ferrite_kir.Layout
module Linker = Ferrite_kir.Linker
module Cisc_backend = Ferrite_kir.Cisc_backend
module Risc_backend = Ferrite_kir.Risc_backend

let stop_addr = 0xFFFF0000

let boot_steps_budget = 2_000_000

(* Build variants for the ablation studies DESIGN.md calls out. *)
type variant = {
  v_mode : KLayout.mode option;  (* override the struct/data layout *)
  v_promote : int option;  (* CISC register-promotion budget *)
  v_g4_wrapper : bool;  (* G4 exception-entry stack wrapper *)
  v_p4_wrapper : bool;  (* add the paper's proposed P4 stack check (off = stock) *)
  v_assertions : bool;  (* hardened build: critical-data assertions (sec. 6) *)
}

let standard =
  { v_mode = None; v_promote = None; v_g4_wrapper = true; v_p4_wrapper = false;
    v_assertions = false }

let task_field_offset_in mode fname =
  let sl = KLayout.layout_struct mode Abi.task_struct in
  (KLayout.field_of sl fname).KLayout.fl_offset

let build_image ?(variant = standard) arch =
  let program = Kmain.program in
  let program =
    if not variant.v_assertions then program
    else
      { program with
        Ferrite_kir.Ir.p_globals =
          List.map
            (function
              | Ferrite_kir.Ir.Gwords ("assertions_enabled", _) ->
                Ferrite_kir.Ir.Gwords ("assertions_enabled", [| 1 |])
              | g -> g)
            program.Ferrite_kir.Ir.p_globals }
  in
  let mode =
    match variant.v_mode with Some m -> m | None -> Image.mode_of_arch arch
  in
  let sp_off = task_field_offset_in mode "sp" in
  let cfuncs =
    match arch with
    | Image.Cisc ->
      Cisc_backend.entry_stub
      :: Cisc_backend.stubs ~with_wrapper:variant.v_p4_wrapper ~task_sp_offset:sp_off
           ~task_stacklo_offset:(task_field_offset_in mode "stack_lo")
           ~panic_stack_overflow:Abi.panic_stack_overflow ()
      @ List.map
          (Cisc_backend.compile_func ~mode ?promote:variant.v_promote
             ~structs:program.Ferrite_kir.Ir.p_structs)
          program.Ferrite_kir.Ir.p_funcs
    | Image.Risc ->
      Risc_backend.entry_stub
      :: Risc_backend.stubs ~with_wrapper:variant.v_g4_wrapper ~task_sp_offset:sp_off
           ~task_stacklo_offset:(task_field_offset_in mode "stack_lo")
           ~panic_stack_overflow:Abi.panic_stack_overflow ()
      @ List.map
          (Risc_backend.compile_func ~mode ~structs:program.Ferrite_kir.Ir.p_structs)
          program.Ferrite_kir.Ir.p_funcs
  in
  Linker.link ~arch ~mode ~g4_wrapper:variant.v_g4_wrapper ~cfuncs ~program ()

(* Fake initial stack frames so that the first switch_to into a fresh task
   "returns" into its entry function. *)
let plant_initial_stack arch mem ~task ~entry =
  let top = Abi.stack_top_of_task task in
  match arch with
  | Image.Cisc ->
    (* [top-36 .. top-5]: POPA image (eight zero dwords); [top-4]: entry *)
    Memory.poke32_le mem (top - 4) entry;
    for i = 2 to 9 do
      Memory.poke32_le mem (top - (4 * i)) 0
    done;
    top - 36
  | Image.Risc ->
    (* an 88-byte switch_to frame: back chain at 0, LR save word = entry *)
    let sp = top - 88 in
    Memory.poke32_be mem sp top;
    Memory.poke32_be mem (sp + 4) entry;
    for i = 0 to 17 do
      Memory.poke32_be mem (sp + 8 + (4 * i)) 0
    done;
    sp

let poke_task_field (sys : System.t) i fname value =
  let sl = KLayout.layout_struct sys.System.image.Image.img_mode Abi.task_struct in
  let fl = KLayout.field_of sl fname in
  let addr = System.task_struct_addr sys i + fl.KLayout.fl_offset in
  match fl.KLayout.fl_ty with
  | Ferrite_kir.Ir.I32 -> System.poke32 sys addr value
  | Ferrite_kir.Ir.I8 -> System.poke8 sys addr value
  | Ferrite_kir.Ir.I16 ->
    (match sys.System.arch with
    | Image.Cisc ->
      System.poke8 sys addr (value land 0xFF);
      System.poke8 sys (addr + 1) ((value lsr 8) land 0xFF)
    | Image.Risc ->
      System.poke8 sys addr ((value lsr 8) land 0xFF);
      System.poke8 sys (addr + 1) (value land 0xFF))

(* Boots in this process; a count, never a cache. *)
let booted = Atomic.make 0

let boots () = Atomic.get booted

let create_cpu arch mem =
  match arch with
  | Image.Cisc -> System.Ccpu (Ferrite_cisc.Cpu.create ~mem ~stop_addr)
  | Image.Risc -> System.Rcpu (Ferrite_risc.Cpu.create ~mem ~stop_addr)

let of_snapshot ~image snap =
  System.of_snapshot ~image ~cpu:(create_cpu image.Image.img_arch) snap

let boot ?image arch =
  Atomic.incr booted;
  let image = match image with Some i -> i | None -> build_image arch in
  let mem = Memory.create () in
  (* text: read+execute; data and stacks: rwx — there was no NX protection on
     these 2004-era 32-bit kernels, and executable data is load-bearing for
     the diagnosability findings (wild jumps into data decode as code) *)
  Memory.map mem ~addr:image.Image.img_text_base
    ~size:(max 4096 (String.length image.Image.img_text))
    ~perm:Memory.perm_rx;
  Memory.blit_string mem ~addr:image.Image.img_text_base image.Image.img_text;
  let data = image.Image.img_data in
  Memory.map mem ~addr:data.KLayout.ds_base
    ~size:(max 4096 data.KLayout.ds_size)
    ~perm:Memory.perm_rwx;
  Memory.blit_string mem ~addr:data.KLayout.ds_base data.KLayout.ds_bytes;
  Memory.map mem ~addr:Abi.stack_base ~size:(Abi.ntasks * Abi.stack_size)
    ~perm:Memory.perm_rwx;
  Memory.map mem ~addr:Abi.heap_base ~size:Abi.heap_size ~perm:Memory.perm_rwx;
  (* the direct-mapped lowmem window: wild kernel pointers usually land in
     mapped memory and propagate, rather than faulting on the spot *)
  Memory.set_auto_map mem ~lo:Layout.kernel_base ~hi:(Layout.kernel_base + 0x1000000)
    ~perm:Memory.perm_rwx;
  let cpu = create_cpu arch mem in
  (match cpu with
  | System.Ccpu c ->
    c.Ferrite_cisc.Cpu.eip <- Image.symbol image "kernel_entry";
    c.Ferrite_cisc.Cpu.regs.(Ferrite_cisc.Cpu.esp) <- Abi.stack_top_of_task 0
  | System.Rcpu r ->
    r.Ferrite_risc.Cpu.pc <- Image.symbol image "kernel_entry";
    r.Ferrite_risc.Cpu.gpr.(1) <- Abi.stack_top_of_task 0;
    r.Ferrite_risc.Cpu.lr <- stop_addr;
    (* SPRG2 carries the current task pointer (boot task 0) *)
    r.Ferrite_risc.Cpu.sprs.(Ferrite_risc.Cpu.spr_sprg2) <- Abi.task_addr 0);
  let sys = { System.arch; image; mem; cpu } in
  (* plant stacks for all non-boot tasks and publish sp/stack_lo *)
  for i = 0 to Abi.ntasks - 1 do
    poke_task_field sys i "stack_lo" (Abi.stack_lo_of_task i);
    if i > 0 then begin
      let entry = Image.symbol image (Abi.task_entry i) in
      let sp = plant_initial_stack arch mem ~task:i ~entry in
      poke_task_field sys i "sp" sp
    end
  done;
  (* run until the kernel is up (first timer tick) *)
  let rec run n =
    if n = 0 then failwith "Boot: kernel did not come up"
    else begin
      match System.step sys with
      | System.Retired | System.Halted ->
        if n land 1023 = 0 && System.global sys "jiffies" > 0 then ()
        else run (n - 1)
      | System.Stopped -> failwith "Boot: unexpected return to harness"
      | System.Hit_ibp | System.Hit_dbp _ -> run (n - 1)
      | System.Faulted f ->
        let msg =
          match f with
          | System.Cisc_fault e -> Ferrite_cisc.Exn.to_string e
          | System.Risc_fault e -> Ferrite_risc.Exn.to_string e
        in
        failwith
          (Printf.sprintf "Boot: kernel fault at %s: %s"
             (Word.to_hex (System.pc sys)) msg)
    end
  in
  run boot_steps_budget;
  sys
