(* Scenario replays: the paper's per-injection examples (Figs. 7, 13, 14) as
   single forced-target trials run through the real campaign pipeline.

   Each scenario pins the exact target the paper describes and runs it as a
   one-spec campaign with a retaining tracer, so the figure becomes an
   annotated timeline instead of prose. Because the replay goes through
   [Executor.run], the rendered trace is byte-identical under Sequential and
   Parallel — which is what the golden-trace tests pin down. *)

module Image = Ferrite_kir.Image
module System = Ferrite_kernel.System
module Boot = Ferrite_kernel.Boot
module Workload = Ferrite_workload.Workload
module Target = Ferrite_injection.Target
module Engine = Ferrite_injection.Engine
module Trial = Ferrite_injection.Trial
module Executor = Ferrite_injection.Executor
module Trial_table = Ferrite_injection.Trial_table
module Outcome = Ferrite_injection.Outcome
module Tracer = Ferrite_trace.Tracer
module Printer = Ferrite_trace.Printer

type t = {
  sc_name : string;  (* CLI identifier *)
  sc_title : string;
  sc_note : string;
  sc_arch : Image.arch;
  sc_kind : Target.kind;
  sc_workload : Workload.t;
  sc_workload_seed : int64;
  sc_target : System.t -> Target.t;  (* resolved against a booted system *)
}

(* find the epilogue "lea -12(%ebp),%esp" (8d 65 f4) inside a function *)
let find_epilogue sys fn =
  let f = Image.find_func sys.System.image fn in
  let rec scan addr =
    if addr >= f.Image.fs_addr + f.Image.fs_size - 2 then failwith "no epilogue found"
    else if
      System.peek8 sys addr = 0x8D
      && System.peek8 sys (addr + 1) = 0x65
      && System.peek8 sys (addr + 2) = 0xF4
    then addr
    else scan (addr + 1)
  in
  scan f.Image.fs_addr

let fig7 =
  {
    sc_name = "fig7";
    sc_title = "Figure 7: undetected stack overflow (P4)";
    sc_note =
      "One bit of free_pages_ok's epilogue LEA turns it into a valid \
       instruction that loads a wild ESP; the kernel runs on and dies far \
       from the real cause.";
    sc_arch = Image.Cisc;
    sc_kind = Target.Code;
    sc_workload = Workload.mix ~ops:24 ();
    (* seed chosen so the mix exercises the buddy allocator and the flip
       activates (most seeds never reach free_pages_ok — that partial
       activation is itself the paper's §3.2 point) *)
    sc_workload_seed = 3L;
    sc_target =
      (fun sys ->
        let addr = find_epilogue sys "free_pages_ok" in
        Target.Code_target { fn = "free_pages_ok"; addr; bit = 8 });
  }

let fig13 =
  {
    sc_name = "fig13";
    sc_title = "Figure 13: spinlock magic corruption reported as Invalid Instruction (P4)";
    sc_note =
      "Flipping one bit of kernel_flag's SPINLOCK_MAGIC makes the next \
       spin_lock execute BUG() (ud2a): fast detection, misleading diagnosis \
       — no executed instruction was invalid.";
    sc_arch = Image.Cisc;
    sc_kind = Target.Data;
    sc_workload = Workload.mix ~ops:16 ();
    sc_workload_seed = 13L;
    sc_target =
      (fun sys -> Target.Data_target { addr = System.symbol sys "kernel_flag"; bit = 22 });
  }

let fig14 =
  {
    sc_name = "fig14";
    sc_title = "Figure 14: decoder re-synchronisation after a code flip (P4)";
    sc_note =
      "A single flip in getblk's entry rewrites a whole instruction group: \
       the variable-length decoder re-synchronises somewhere else in the \
       byte stream.";
    sc_arch = Image.Cisc;
    sc_kind = Target.Code;
    sc_workload = Workload.mix ~ops:24 ();
    sc_workload_seed = 0xF14_4L;
    sc_target =
      (fun sys ->
        let f = Image.find_func sys.System.image "getblk" in
        (* byte 1, bit 3 of the entry instruction = word bit 11 *)
        Target.Code_target { fn = "getblk"; addr = f.Image.fs_addr; bit = 11 });
  }

let all = [ fig7; fig13; fig14 ]

let find name = List.find_opt (fun sc -> sc.sc_name = name) all

type result = {
  scenario : t;
  target : Target.t;
  outcome : Outcome.record;
  trace : Tracer.trial;
  dump : Ferrite_injection.Crash_dump.t option;  (* Some iff Known_crash *)
}

let spec_of sc target =
  {
    Trial.index = 0;
    workload = sc.sc_workload;
    target_seed = 0L;  (* unused: the target is forced *)
    workload_seed = sc.sc_workload_seed;
    collector_seed = 1L;
    fault_seed = 0L;  (* scenarios replay the paper's single-bit flips *)
    variant = Boot.standard;
    forced_target = Some target;
  }

let run ?(trace = Tracer.default_config) sc =
  let image = Boot.build_image ~variant:Boot.standard sc.sc_arch in
  (* resolve the paper's target against a probe boot of the same image *)
  let target = sc.sc_target (Boot.boot ~image sc.sc_arch) in
  let env =
    {
      Trial.env_arch = sc.sc_arch;
      env_kind = sc.sc_kind;
      env_image = image;
      env_hot = [];
      env_engine = Engine.default_config;
      env_collector_loss = 0.0;
      env_collector_retries = 0;
      env_fault_model = Ferrite_injection.Fault_model.Single_bit_transient;
      env_targeting = Target.Uniform;
    }
  in
  let out = Executor.run ~trace Executor.Sequential env [| spec_of sc target |] in
  {
    scenario = sc;
    target;
    outcome = out.Trial_table.records.(0);
    trace = out.Trial_table.traces.(0);
    dump = out.Trial_table.dumps.(0);
  }

let render r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (r.scenario.sc_title ^ "\n");
  Buffer.add_string buf (r.scenario.sc_note ^ "\n\n");
  Buffer.add_string buf (Printf.sprintf "target : %s\n" (Target.describe r.target));
  Buffer.add_string buf
    (Printf.sprintf "outcome: %s\n\n" (Outcome.outcome_label r.outcome.Outcome.r_outcome));
  Buffer.add_string buf (Printer.render_trial r.trace);
  Buffer.contents buf
