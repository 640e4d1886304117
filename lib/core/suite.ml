module Image = Ferrite_kir.Image
module Campaign = Ferrite_injection.Campaign
module Target = Ferrite_injection.Target

type scale = { stack_n : int; sysreg_n : int; data_n : int; code_n : int }

let paper_counts = function
  | Image.Cisc -> { stack_n = 10143; sysreg_n = 3866; data_n = 46000; code_n = 1790 }
  | Image.Risc -> { stack_n = 3017; sysreg_n = 3967; data_n = 46000; code_n = 2188 }

let scaled arch f =
  let p = paper_counts arch in
  let s n = max 50 (int_of_float (float_of_int n *. f)) in
  { stack_n = s p.stack_n; sysreg_n = s p.sysreg_n; data_n = s p.data_n; code_n = s p.code_n }

type t = {
  arch : Image.arch;
  stack : Campaign.result;
  sysreg : Campaign.result;
  data : Campaign.result;
  code : Campaign.result;
}

let run ?(seed = 0x0D5A2004L) ?(progress = fun _ ~done_:_ ~total:_ -> ())
    ?(executor = Ferrite_injection.Executor.default) ~scale arch =
  (* the four campaigns attack one kernel: compile and profile it once *)
  let inputs = Campaign.build_inputs arch in
  let one kind name n extra_seed =
    let cfg =
      { (Campaign.default ~arch ~kind ~injections:n) with Campaign.seed = Int64.add seed extra_seed }
    in
    Campaign.run ~progress:(fun ~done_ ~total -> progress name ~done_ ~total) ~executor ~inputs cfg
  in
  {
    arch;
    stack = one Target.Stack "stack" scale.stack_n 1L;
    sysreg = one Target.Register "sysreg" scale.sysreg_n 2L;
    data = one Target.Data "data" scale.data_n 3L;
    code = one Target.Code "code" scale.code_n 4L;
  }

let campaign t = function
  | Target.Stack -> t.stack
  | Target.Register -> t.sysreg
  | Target.Data -> t.data
  | Target.Code -> t.code

let total_injections t =
  List.fold_left
    (fun acc (r : Campaign.result) -> acc + List.length r.Campaign.records)
    0 [ t.stack; t.sysreg; t.data; t.code ]
