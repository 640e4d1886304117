(* The five workloads and the campaigns each one runs.

   A run repeats a workload in rounds until its measuring time is up. Round
   [r] of seed [s] is a fixed set of campaigns whose seeds derive from
   [(s, r)] alone, so the same seed always gives the same inputs; a faster
   build only gets further down the same sequence. Each round sets up from
   scratch, as a user's invocation does, which is what makes [setup_s] a
   median over several set-ups per run. *)

module Image = Ferrite_kir.Image
module Campaign = Ferrite_injection.Campaign
module Target = Ferrite_injection.Target

type shape =
  | Suite of Image.arch  (** [Suite.run], sequential and in memory, then its report *)
  | Jobs2  (** one campaign on [Executor.Parallel {domains = 2}] *)
  | Fleet2  (** the same campaign through the fabric with two forked workers *)
  | Persist  (** a supervised, journaled campaign, then store, report, resume *)

type t = { name : string; shape : shape }

(* Why each workload exists is recorded in BENCHMARK.json and README.md. *)
let all =
  [
    { name = "p4-suite"; shape = Suite Image.Cisc };
    { name = "g4-suite"; shape = Suite Image.Risc };
    { name = "p4-code-jobs2"; shape = Jobs2 };
    { name = "p4-code-fleet2"; shape = Fleet2 };
    { name = "g4-data-persist"; shape = Persist };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let default_seed = 0x2004L
let held_out_seed = 0x1729L

(* Campaign sizes per round. A full round takes 2-3 s on a 2-core Xeon, so
   a 10 s run sets up three or more times and completes at least 3000
   sequential trials; [quick] rounds are about 50 trials. *)
let suite_scale ~quick arch =
  let f = if quick then 1.0 /. 800.0 else match arch with Image.Cisc -> 1.0 /. 60.0 | Image.Risc -> 1.0 /. 30.0 in
  let p = Ferrite.Suite.paper_counts arch in
  let s n = max 2 (int_of_float (float_of_int n *. f)) in
  {
    Ferrite.Suite.stack_n = s p.Ferrite.Suite.stack_n;
    sysreg_n = s p.Ferrite.Suite.sysreg_n;
    data_n = s p.Ferrite.Suite.data_n;
    code_n = s p.Ferrite.Suite.code_n;
  }

let code_trials ~quick = if quick then 50 else 500
let data_trials ~quick = if quick then 60 else 1500

let round_seed seed r = Ferrite_machine.Rng.derive ~seed ~index:r

(* The campaigns of one round, in execution order. The suite's per-kind
   seed offsets are [Suite.run]'s own. *)
let campaigns ~quick w ~seed ~round =
  let seed = round_seed seed round in
  let cfg arch kind n extra =
    { (Campaign.default ~arch ~kind ~injections:n) with Campaign.seed = Int64.add seed extra }
  in
  match w.shape with
  | Suite arch ->
    let s = suite_scale ~quick arch in
    [
      cfg arch Target.Stack s.Ferrite.Suite.stack_n 1L;
      cfg arch Target.Register s.Ferrite.Suite.sysreg_n 2L;
      cfg arch Target.Data s.Ferrite.Suite.data_n 3L;
      cfg arch Target.Code s.Ferrite.Suite.code_n 4L;
    ]
  | Jobs2 | Fleet2 -> [ cfg Image.Cisc Target.Code (code_trials ~quick) 0L ]
  | Persist -> [ cfg Image.Risc Target.Data (data_trials ~quick) 0L ]

let sequential w = match w.shape with Suite _ | Persist -> true | Jobs2 | Fleet2 -> false
