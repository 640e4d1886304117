(* fault-matrix: a seconds-scale slice of the 4-model x 2-arch sweep for CI.

   Runs a tiny campaign for every (arch, fault model) cell of
   [Fault_model.sweep_models], and exits non-zero unless

   - every cell's records all carry that cell's model tag (the per-model
     Table 5/6 breakouts depend on the tag surviving the engine),
   - the legacy cell (single-bit transient, uniform targeting) is
     bit-identical between the sequential and parallel executors, like the
     main bench-smoke gate but through the sweep path, and
   - the per-model breakout report renders a row for each model. *)

module Image = Ferrite_kir.Image
module Campaign = Ferrite_injection.Campaign
module Target = Ferrite_injection.Target
module Executor = Ferrite_injection.Executor
module Fault_model = Ferrite_injection.Fault_model

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("fault-matrix: " ^ s); exit 1) fmt

let cell ~arch ~model =
  { (Campaign.default ~arch ~kind:Target.Stack ~injections:6) with
    Campaign.seed = 0x2004L;
    fault_model = model;
    targeting = Target.Uniform }

let () =
  let arches = [ ("p4", Image.Cisc); ("g4", Image.Risc) ] in
  let cells = ref 0 in
  (* one kernel per arch: its inputs are built once and shared by its cells *)
  let inputs = List.map (fun (_, arch) -> (arch, Campaign.build_inputs arch)) arches in
  List.iter
    (fun (arch_name, arch) ->
      List.iter
        (fun model ->
          let cfg = cell ~arch ~model in
          let res = Campaign.run ~inputs:(List.assoc arch inputs) cfg in
          incr cells;
          let tag = Fault_model.tag model in
          List.iter
            (fun r ->
              if Fault_model.tag r.Ferrite_injection.Outcome.r_model <> tag then
                fail "%s/%s: record tagged %s" arch_name tag
                  (Fault_model.tag r.Ferrite_injection.Outcome.r_model))
            res.Campaign.records;
          (match Campaign.group_by_model res with
          | [ (t, rs) ] when t = tag && List.length rs = 6 -> ()
          | _ -> fail "%s/%s: breakout bucket malformed" arch_name tag);
          let breakout = Ferrite.Report.model_breakout res in
          if String.length breakout = 0 then
            fail "%s/%s: empty breakout table" arch_name tag)
        Fault_model.sweep_models)
    arches;
  let legacy = cell ~arch:Image.Cisc ~model:Fault_model.Single_bit_transient in
  let inputs = List.assoc Image.Cisc inputs in
  let seq = Campaign.run ~inputs legacy in
  let par = Campaign.run ~inputs ~executor:(Executor.of_jobs 4) legacy in
  if seq.Campaign.records <> par.Campaign.records then
    fail "legacy cell differs between sequential and parallel executors";
  Printf.printf "fault-matrix ok: %d cells across %d models x %d arches\n" !cells
    (List.length Fault_model.sweep_models)
    (List.length arches)
