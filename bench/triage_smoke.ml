(* triage-smoke: the store/triage pipeline gate for CI.

   Writes one small campaign to a columnar store under the sequential and
   parallel executors and exits non-zero unless the two files are
   byte-identical, the store-backed report over them renders identically,
   and the scenario replays (Figs. 7/13/14) land in the paper's §5
   families. *)

module Image = Ferrite_kir.Image
module Campaign = Ferrite_injection.Campaign
module Target = Ferrite_injection.Target
module Executor = Ferrite_injection.Executor
module Result_store = Ferrite_injection.Result_store
module Triage = Ferrite_injection.Triage
module Store = Ferrite_store.Store

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("triage-smoke: " ^ s); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_store path results =
  let w = Store.create path in
  List.iter (Result_store.append_result w) results;
  Store.close w

let () =
  let cfg kind =
    { (Campaign.default ~arch:Image.Cisc ~kind ~injections:10) with Campaign.seed = 0x51A6EL }
  in
  let run executor =
    List.map (fun kind -> Campaign.run ~executor (cfg kind)) [ Target.Stack; Target.Code ]
  in
  let p1 = Filename.temp_file "triage_smoke_j1" ".fstore" in
  let p4 = Filename.temp_file "triage_smoke_j4" ".fstore" in
  write_store p1 (run Executor.Sequential);
  write_store p4 (run (Executor.of_jobs 4));
  if read_file p1 <> read_file p4 then
    fail "store files differ between sequential and parallel executors";
  let report path =
    let aggs, sc = Result_store.aggregate path in
    (Ferrite.Report.from_store_report aggs, sc)
  in
  let rep1, sc1 = report p1 in
  let rep4, _ = report p4 in
  if rep1 <> rep4 then fail "store-backed reports differ across executors";
  if sc1.Store.sc_truncated_bytes <> 0 then fail "fresh store reports a torn tail";
  let expected = [ ("fig7", "stack_overwrite"); ("fig13", "bad_pointer"); ("fig14", "resync") ] in
  List.iter
    (fun (name, want) ->
      let sc =
        match Ferrite.Scenario.find name with
        | Some sc -> sc
        | None -> fail "no scenario %s" name
      in
      let r = Ferrite.Scenario.run sc in
      match Triage.of_record r.Ferrite.Scenario.outcome r.Ferrite.Scenario.dump with
      | Some b when Triage.tag b = want -> ()
      | Some b -> fail "%s triaged %s, want %s" name (Triage.tag b) want
      | None -> fail "%s not triaged" name)
    expected;
  Sys.remove p1;
  Sys.remove p4;
  Printf.printf
    "triage-smoke ok: %d-row store byte-identical across executors; fig7/fig13/fig14 -> \
     stack_overwrite/bad_pointer/resync\n"
    sc1.Store.sc_rows
