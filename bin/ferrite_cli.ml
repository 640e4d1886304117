(* ferrite — command-line front end.

   Subcommands:
     boot      boot a kernel and print a health summary
     profile   profile the kernel under the workload (paper §3.5 "Location")
     inject    run a single injection campaign and print its statistics
     suite     run all four campaigns on one platform (Table 5 / Table 6)
     report    run both platforms and print every table and figure
     ablate    rebuild with one mechanism changed and measure the effect
     oops      inject until a crash, then print the kernel crash dump
     disasm    disassemble a kernel function on either platform
     trace     replay a paper scenario (fig7/fig13/fig14) as an event timeline
     triage    bucket crashes into the paper's sec. 5 root-cause families
     fuzz      fuzz the codecs and the differential trial oracle

   Every flag is declared once. The campaign commands assemble theirs from
   shared terms: the campaign config, the run (executor and progress), the
   outputs, supervision, and the harness-fault seed. *)

open Cmdliner
open Term.Syntax
module Image = Ferrite_kir.Image
module System = Ferrite_kernel.System
module Boot = Ferrite_kernel.Boot
module Campaign = Ferrite_injection.Campaign
module Executor = Ferrite_injection.Executor
module Target = Ferrite_injection.Target
module Trial = Ferrite_injection.Trial
module Outcome = Ferrite_injection.Outcome
module Crash_cause = Ferrite_injection.Crash_cause
module Supervisor = Ferrite_injection.Supervisor
module Journal = Ferrite_injection.Journal
module Result_store = Ferrite_injection.Result_store
module Store = Ferrite_store.Store
module Triage = Ferrite_injection.Triage
module Fabric = Ferrite_fabric.Fabric
module Iofault = Ferrite_iofault.Iofault
module Tracer = Ferrite_trace.Tracer
module Scenario = Ferrite.Scenario

(* --- converters --- *)

let count =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%d is negative; expected a count" n))
    | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let probability =
  let parse s =
    match float_of_string_opt s with
    | Some p when p >= 0.0 && p <= 1.0 -> Ok p
    | _ -> Error (`Msg (Printf.sprintf "%S is not a probability in [0,1]" s))
  in
  Arg.conv (parse, Format.pp_print_float)

(* [Arg.enum] prints a value by the last name listed for it, so aliases
   come first. *)
let arch_conv =
  Arg.enum
    [
      ("cisc", Image.Cisc); ("risc", Image.Risc); ("P4", Image.Cisc); ("G4", Image.Risc);
      ("p4", Image.Cisc); ("g4", Image.Risc);
    ]

let arch_name = Format.asprintf "%a" (Arg.conv_printer arch_conv)
let arch_label arch = String.uppercase_ascii (arch_name arch)

let kind_conv =
  Arg.enum
    [
      ("sysreg", Target.Register); ("stack", Target.Stack); ("data", Target.Data);
      ("code", Target.Code); ("register", Target.Register);
    ]

let kind_name = Format.asprintf "%a" (Arg.conv_printer kind_conv)

(* --- flags shared by several commands --- *)

let arch_arg =
  let doc = "Target platform: p4 (CISC) or g4 (RISC)." in
  Arg.(value & opt arch_conv Image.Cisc & info [ "a"; "arch" ] ~docv:"ARCH" ~doc)

let kind_arg =
  let doc = "Campaign kind: stack, data, code or register." in
  Arg.(value & opt kind_conv Target.Stack & info [ "k"; "kind" ] ~docv:"KIND" ~doc)

let seed_arg default =
  let doc = "Deterministic seed: the same seed replays the same run." in
  Arg.(value & opt int64 default & info [ "seed" ] ~docv:"SEED" ~doc)

let scale_arg =
  let doc =
    "Scale factor applied to the paper's campaign sizes (1.0 = the full \
     115,000-injection study)."
  in
  Arg.(value & opt float 0.02 & info [ "scale" ] ~docv:"S" ~doc)

let from_store_arg =
  let doc =
    "Answer from the columnar result store at $(docv) instead of running \
     campaigns: a single streaming pass rebuilds Table 5/6, the per-model \
     breakouts and the triage tables — byte-identical to the in-memory \
     report over the same records."
  in
  Arg.(value & opt (some string) None & info [ "from-store" ] ~docv:"FILE" ~doc)

let trace_dir_arg =
  let doc =
    "Write the event stream to $(docv) as JSONL (one file per campaign or \
     scenario; a campaign adds a telemetry .json); implies per-trial event \
     retention."
  in
  Arg.(value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR" ~doc)

(* --- the campaign config: every flag that shapes a campaign's records --- *)

let paper_config = Campaign.default ~arch:Image.Cisc ~kind:Target.Stack ~injections:0

let config_term ~injections =
  let+ arch = arch_arg
  and+ kind = kind_arg
  and+ injections =
    let doc = "Error injections per campaign." in
    Arg.(value & opt count injections & info [ "n" ] ~docv:"N" ~doc)
  and+ seed = seed_arg 0x2004L
  and+ collector_loss =
    let doc = "Crash-dump loss probability of the collector channel." in
    Arg.(
      value
      & opt probability paper_config.Campaign.collector_loss
      & info [ "collector-loss" ] ~docv:"P" ~doc)
  and+ collector_retries =
    let doc =
      "Bounded dump-retransmission budget per crash (0 = the paper's \
       single-shot channel). Duplicates are dropped by sequence number."
    in
    Arg.(
      value
      & opt count paper_config.Campaign.collector_retries
      & info [ "collector-retries" ] ~docv:"N" ~doc)
  in
  {
    (Campaign.default ~arch ~kind ~injections) with
    Campaign.seed;
    collector_loss;
    collector_retries;
  }

(* --- the run: executor and progress --- *)

let executor_term =
  let doc =
    "Number of worker domains for campaign execution (0 = one per core; \
     values beyond the core count are clamped, since extra domains only add \
     per-worker boots). Results are bit-identical for every value; only \
     wall-clock time changes."
  in
  Term.(
    const (function 0 -> Executor.auto () | n -> Executor.of_jobs n)
    $ Arg.(value & opt count 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc))

type exec = { executor : Executor.t; progress : bool }

let exec_term =
  let+ executor = executor_term
  and+ progress = Arg.(value & flag & info [ "progress" ] ~doc:"Print progress to stderr.") in
  { executor; progress }

(* The one progress line, redrawn on stderr every 100 trials and at the
   end; [label] names the campaign when a command runs several. *)
let progress_fn exec label ~done_ ~total =
  if exec.progress && (done_ mod 100 = 0 || done_ = total) then
    Printf.eprintf "\r%s%d/%d%!" label done_ total

let end_progress exec = if exec.progress then prerr_newline ()

(* --- outputs: result store and event traces --- *)

type outputs = { store : string option; store_append : bool; trace_dir : string option }

let outputs_term ?(trace_dir = trace_dir_arg) () =
  let+ store =
    let doc =
      "Write every trial's result (outcome, cause, latency, triage bucket, \
       ...) to the columnar store at $(docv); an existing file is replaced \
       unless --store-append is given. Query later with 'report --from-store' \
       and 'triage --from-store'."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"FILE" ~doc)
  and+ store_append =
    let doc = "With --store, append to an existing store instead of replacing it." in
    Arg.(value & flag & info [ "store-append" ] ~doc)
  and+ trace_dir = trace_dir in
  { store; store_append; trace_dir }

(* Trace files go through the I/O fault layer like every other artifact. *)
let write_jsonl dir stem trials =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then failwith (dir ^ " exists and is not a directory");
  let path = Filename.concat dir (stem ^ ".jsonl") in
  if not (Ferrite_trace.Jsonl.write_trials_path path trials) then
    Printf.eprintf "ferrite: %s is a partial trace (writer degraded)\n" path;
  path

(* --trace-dir: the campaign's event stream as JSONL plus its telemetry
   counters, one file pair per campaign *)
let dump_campaign_trace dir (res : Campaign.result) =
  let cfg = res.Campaign.cfg in
  let stem = Printf.sprintf "%s-%s" (arch_name cfg.Campaign.arch) (kind_name cfg.Campaign.kind) in
  let jsonl = write_jsonl dir stem res.Campaign.traces in
  let telemetry = Filename.concat dir (stem ^ "-telemetry.json") in
  let oc = open_out telemetry in
  output_string oc (Ferrite_trace.Telemetry.to_json res.Campaign.telemetry);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "wrote %s and %s\n" jsonl telemetry

let write_store ~append path results =
  let w = if append then Store.open_append path else Store.create path in
  List.iter (Result_store.append_result w) results;
  Store.close w;
  (* read after close: the final block flush may itself have degraded *)
  let dropped = Store.rows_dropped w in
  let degraded = Store.degraded w in
  (match Store.scan path with
  | sc ->
    Printf.eprintf "wrote %s (%d rows, %d blocks, %d bytes)\n" path sc.Store.sc_rows
      sc.Store.sc_blocks sc.Store.sc_bytes
  | exception Store.Not_a_store _ when degraded ->
    (* the header itself never landed: nothing scannable, by design *)
    Printf.eprintf "wrote %s (no scannable prefix: the header write failed)\n" path);
  if degraded then
    Printf.eprintf
      "ferrite: store %s DEGRADED: %d row(s) dropped after a write failure; what is \
       on disk is a valid prefix\n"
      path dropped

let write_outputs outputs results =
  Option.iter (fun dir -> List.iter (dump_campaign_trace dir) results) outputs.trace_dir;
  Option.iter (fun path -> write_store ~append:outputs.store_append path results) outputs.store

let load_aggregates path =
  match Result_store.aggregate path with
  | aggs, sc ->
    if sc.Store.sc_truncated_bytes > 0 then
      Printf.eprintf "note: %s has a torn tail; %d byte(s) ignored\n" path
        sc.Store.sc_truncated_bytes;
    (aggs, sc)
  | exception Store.Not_a_store p ->
    Printf.eprintf "ferrite: %s is not a ferrite result store\n" p;
    exit 2
  | exception Sys_error msg ->
    Printf.eprintf "ferrite: %s\n" msg;
    exit 2

(* --- supervision --- *)

(* The one supervision of an inject run, for the in-process supervisor and
   the fabric controller alike. The chaos drill is planned from the
   campaign's seed and size, so the term yields a function of the config.
   --resume names the journal it keeps appending to. *)
let supervision_term =
  Term.term_result ~usage:true
  @@ let+ journal =
       let doc =
         "Checkpoint every completed trial to $(docv) (CRC-framed, append-only). \
          Names a new journal: an existing file at the path is replaced."
       in
       Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
     and+ resume =
       let doc =
         "Resume the campaign recorded in $(docv): trials already journalled are \
          served from the file instead of re-run, the torn tail (if the previous \
          run was killed mid-append) is truncated, and new trials keep appending. \
          The result is byte-identical to an uninterrupted run for every --jobs. \
          A journal written for a different plan (seed, kind, count, ...) is \
          rejected."
       in
       Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)
     and+ max_retries =
       let doc =
         "Retry a trial that crashed the harness (or overran its host deadline) \
          up to $(docv) times from a fresh boot before quarantining it as an \
          infrastructure failure; quarantined trials are excluded from the \
          outcome percentages. Passing the flag enables supervision even \
          without a journal."
       in
       Arg.(value & opt (some count) None & info [ "max-retries" ] ~docv:"N" ~doc)
     and+ chaos =
       let doc =
         "Chaos drill: plant worker exceptions, a host-deadline overrun and a \
          collector outage window at seeded trial indices, then let supervision \
          prove it degrades gracefully. Kept apart from --harness-fault: the \
          drill changes records, so it is part of the journal's plan hash."
       in
       Arg.(value & flag & info [ "chaos" ] ~doc)
     in
     match (resume, journal) with
     | Some r, Some j when r <> j ->
       Error
         (`Msg
           (Printf.sprintf
              "--journal and --resume name different files; --resume %s already \
               appends to the journal it resumes"
              r))
     | _ ->
       let sv_journal, sv_resume =
         match resume with Some r -> (Some r, true) | None -> (journal, false)
       in
       Ok
         (fun (cfg : Campaign.config) ->
           if sv_journal = None && max_retries = None && not chaos then None
           else
             Some
               {
                 Campaign.sv_policy =
                   Option.fold max_retries ~none:Supervisor.default_policy ~some:(fun n ->
                       { Supervisor.default_policy with Supervisor.sp_max_retries = n });
                 sv_chaos =
                   (if chaos then
                      Supervisor.drill_plan ~seed:cfg.Campaign.seed
                        ~injections:cfg.Campaign.injections
                    else Supervisor.no_chaos);
                 sv_journal;
                 sv_resume;
               })

(* Both the in-process supervisor and the fabric controller recover a
   --resume journal; the refusal messages are identical either way. *)
let with_journal_errors f =
  try f () with
  | Journal.Header_mismatch { hm_path; hm_expected; hm_found } ->
    Printf.eprintf
      "ferrite: %s was written for a different campaign plan (journal hash %Lx, \
       this plan %Lx); refusing to mix campaigns. Re-run with matching \
       --arch/--kind/-n/--seed/... flags, or start a fresh journal with \
       --journal.\n"
      hm_path hm_found hm_expected;
    exit 2
  | Journal.Not_a_journal path ->
    Printf.eprintf "ferrite: %s is not a ferrite journal; refusing to touch it\n" path;
    exit 2

(* --- the harness-fault seed --- *)

(* [Some (seed, onset override)]: the seed is the whole plan,
   [Iofault.plan_of_seed]. *)
let harness_fault_term =
  Term.term_result ~usage:true
  @@ let+ seed =
       let doc =
         "Inject faults into the harness itself, all drawn from seed $(docv): \
          every journal, store, trace and fabric-wire descriptor sees \
          EINTR/EAGAIN, short reads and writes, delays and (on half the seeds) \
          a disk-full onset drawn in [16 KiB, 64 KiB). Retriable faults are \
          absorbed and the results stay byte-identical; ENOSPC/EIO degrade \
          loudly to a reported salvage state. The same seed replays the same \
          faults."
       in
       Arg.(value & opt (some int64) None & info [ "harness-fault" ] ~docv:"SEED" ~doc)
     and+ onset =
       let doc =
         "With --harness-fault, override the plan's disk-full onset: the global \
          byte budget shared by all file writers is exhausted after $(docv) \
          bytes (the ENOSPC-onset sweep knob from EXPERIMENTS.md)."
       in
       Arg.(value & opt (some count) None & info [ "io-enospc-after" ] ~docv:"BYTES" ~doc)
     in
     match (seed, onset) with
     | None, Some _ -> Error (`Msg "--io-enospc-after needs --harness-fault")
     | None, None -> Ok None
     | Some seed, onset -> Ok (Some (seed, onset))

let arm_harness_fault =
  Option.iter (fun (seed, onset) ->
      let plan = Iofault.plan_of_seed seed in
      let plan =
        Option.fold onset ~none:plan ~some:(fun n -> { plan with Iofault.pl_enospc_after = Some n })
      in
      Iofault.arm ~plan ~seed ())

(* Printed after any campaign run under --harness-fault: the fault/retry
   counters, and — when any writer degraded — a loud salvage banner. The
   banner is the invariant's second arm: either byte-identical completion,
   or this. *)
let print_io_chaos_report () =
  match Iofault.armed_seed () with
  | None -> ()
  | Some seed ->
    Printf.printf "io-chaos:        seed %Ld: %s\n" seed (Iofault.render_stats ());
    (match Iofault.salvage_labels () with
    | [] -> ()
    | labels ->
      Printf.printf
        "  DEGRADED STATE: %s salvaged — on-disk artifacts are valid, explicitly \
         partial prefixes; results above cover what completed\n"
        (String.concat ", " labels))

(* --- the fabric --- *)

let print_fabric_report (rep : Fabric.report) =
  Printf.printf "fabric:          %d worker(s): %d fresh result(s), %d duplicate(s) dropped\n"
    rep.Fabric.fb_workers rep.Fabric.fb_results rep.Fabric.fb_dup_results;
  if rep.Fabric.fb_worker_deaths > 0 || rep.Fabric.fb_left > 0 then
    Printf.printf "  fleet churn:   %d death(s) (%d trial(s) re-leased), %d orderly leave(s)\n"
      rep.Fabric.fb_worker_deaths rep.Fabric.fb_requeued rep.Fabric.fb_left;
  if rep.Fabric.fb_hung > 0 then
    Printf.printf
      "  hung workers:  %d declared dead past the heartbeat deadline, %d lease(s) reclaimed\n"
      rep.Fabric.fb_hung rep.Fabric.fb_expired;
  if rep.Fabric.fb_missing > 0 then
    Printf.printf
      "  SALVAGE STATE: %d trial(s) not merged (drained); percentages above cover the \
       completed subset only\n"
      rep.Fabric.fb_missing;
  List.iter
    (fun (i, reason) -> Printf.printf "  trial %d quarantined: %s\n" i reason)
    rep.Fabric.fb_quarantined

(* Install the SIGTERM/SIGINT drain handlers between creating the
   controller and forking its workers: a signal then ends [finish]'s loop,
   [finish] salvages what is merged, and the process still prints a
   (partial) report and leaves a valid journal. Forked workers inherit the
   armed --harness-fault plan. Leases are sized for the fleet, as
   [Fabric.run_campaign] sizes them. *)
let run_fabric ~workers ?supervision ~tracer ~exec cfg =
  let chunk = Executor.chunk_size ~total:cfg.Campaign.injections ~workers in
  let c = Fabric.Controller.create ?supervision ~tracer ~chunk cfg in
  let install signal =
    try
      ignore
        (Sys.signal signal (Sys.Signal_handle (fun _ -> Fabric.Controller.request_drain c)))
    with Invalid_argument _ | Sys_error _ -> ()
  in
  install Sys.sigterm;
  install Sys.sigint;
  for _ = 1 to workers do
    ignore (Fabric.Controller.add_worker c)
  done;
  Fabric.Controller.finish ~progress:(progress_fn exec "") c

(* --- boot --- *)

let boot_cmd =
  let run arch =
    let t0 = Unix.gettimeofday () in
    let sys = Boot.boot arch in
    let dt = (Unix.gettimeofday () -. t0) *. 1000.0 in
    let c = System.counters sys in
    Printf.printf "%s kernel booted in %.1f ms\n" (System.arch_name sys) dt;
    Printf.printf "  text: %d bytes, %d functions\n"
      (Image.text_size sys.System.image)
      (Array.length sys.System.image.Image.img_funcs);
    Printf.printf "  data: %d bytes\n" sys.System.image.Image.img_data.Ferrite_kir.Layout.ds_size;
    Printf.printf "  boot instructions: %d (cycles %d)\n" c.Ferrite_machine.Counters.instructions
      c.Ferrite_machine.Counters.cycles;
    Printf.printf "  jiffies: %d\n" (System.global sys "jiffies")
  in
  Cmd.v (Cmd.info "boot" ~doc:"Boot a kernel and print a health summary")
    Term.(const run $ arch_arg)

(* --- profile --- *)

let profile_cmd =
  let run arch =
    let sys = Boot.boot arch in
    let samples = Ferrite_workload.Profiler.profile sys in
    Printf.printf "Kernel profile under the UnixBench-like mix (%s):\n" (System.arch_name sys);
    List.iter
      (fun (s : Ferrite_workload.Profiler.sample) ->
        Printf.printf "  %-22s %6d samples  %5.1f%%\n" s.Ferrite_workload.Profiler.fn_name
          s.Ferrite_workload.Profiler.samples
          (100.0 *. s.Ferrite_workload.Profiler.fraction))
      samples;
    let hot = Ferrite_workload.Profiler.hot_functions samples in
    Printf.printf "95%% coverage set (%d functions): %s\n" (List.length hot)
      (String.concat ", " hot)
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Profile kernel functions under the workload (the paper's target selection)")
    Term.(const run $ arch_arg)

(* --- inject --- *)

let print_campaign (res : Campaign.result) =
  let s = Campaign.summarize res in
  let d =
    if s.Campaign.activation_known then max 1 s.Campaign.activated else max 1 s.Campaign.injected
  in
  let pct n = 100.0 *. float_of_int n /. float_of_int d in
  Printf.printf "injected:        %d\n" s.Campaign.injected;
  if s.Campaign.activation_known then
    Printf.printf "activated:       %d (%.1f%%)\n" s.Campaign.activated
      (100.0 *. float_of_int s.Campaign.activated /. float_of_int (max 1 s.Campaign.injected))
  else Printf.printf "activated:       N/A (register campaign)\n";
  Printf.printf "not manifested:  %d (%.1f%%)\n" s.Campaign.not_manifested (pct s.Campaign.not_manifested);
  Printf.printf "fail silence:    %d (%.1f%%)\n" s.Campaign.fsv (pct s.Campaign.fsv);
  Printf.printf "known crash:     %d (%.1f%%)\n" s.Campaign.known_crash (pct s.Campaign.known_crash);
  Printf.printf "hang/unknown:    %d (%.1f%%)\n" s.Campaign.hang_or_unknown (pct s.Campaign.hang_or_unknown);
  if s.Campaign.infrastructure > 0 then
    Printf.printf "quarantined:     %d (harness failures, excluded above)\n"
      s.Campaign.infrastructure;
  Printf.printf "reboots:         %d\n" res.Campaign.reboots;
  let col = res.Campaign.collector in
  Printf.printf "dumps delivered: %d (%d lost in transit)\n"
    col.Ferrite_injection.Collector.st_received col.Ferrite_injection.Collector.st_lost;
  if res.Campaign.cfg.Campaign.collector_retries > 0 then
    Printf.printf "retransmissions: %d (%d dumps gave up, %d duplicates dropped)\n"
      col.Ferrite_injection.Collector.st_retransmitted
      col.Ferrite_injection.Collector.st_gave_up
      col.Ferrite_injection.Collector.st_dup_dropped;
  Option.iter
    (fun (sup : Supervisor.report) ->
      Printf.printf "supervision:     %d retried, %d quarantined, %d resumed from journal\n"
        sup.Supervisor.sup_retries
        (List.length sup.Supervisor.sup_quarantined)
        sup.Supervisor.sup_resume_skips;
      if sup.Supervisor.sup_journal_truncated > 0 then
        Printf.printf "journal:         %d torn-tail byte(s) discarded on recovery\n"
          sup.Supervisor.sup_journal_truncated;
      List.iter
        (fun (q : Supervisor.quarantine) ->
          Printf.printf "  trial %d quarantined after %d attempt(s): %s\n"
            q.Supervisor.q_index q.Supervisor.q_attempts q.Supervisor.q_reason)
        sup.Supervisor.sup_quarantined)
    res.Campaign.supervision;
  let causes = Campaign.crash_causes res in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 causes in
  if total > 0 then begin
    Printf.printf "crash causes (known crashes, %d):\n" total;
    List.iter
      (fun (c, n) ->
        Printf.printf "  %-26s %4d (%.1f%%)\n" (Crash_cause.label c) n
          (100.0 *. float_of_int n /. float_of_int total))
      causes
  end;
  Printf.printf "caches:          %s\n"
    (Format.asprintf "%a" Ferrite_machine.Cache_stats.render res.Campaign.cache);
  Printf.printf "telemetry:\n%s\n" (Ferrite_trace.Telemetry.render res.Campaign.telemetry)

let inject_cmd =
  let workers_arg =
    let doc =
      "Run the campaign on the distributed fabric with $(docv) forked worker \
       processes. The merged records, traces and store bytes are \
       byte-identical to --jobs 1 for every worker count; only the fabric \
       diagnostics differ."
    in
    Arg.(value & opt count 0 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let run cfg exec outputs supervision harness workers =
    arm_harness_fault harness;
    let tracer =
      if outputs.trace_dir = None then Tracer.telemetry_only else Tracer.default_config
    in
    (* one supervision value feeds both schedulers: the fabric controller
       takes the same policy, drill plan and journal as the in-process run *)
    let supervision = supervision cfg in
    let res, fabric_report =
      with_journal_errors (fun () ->
          match workers with
          | 0 ->
            ( Campaign.run ~progress:(progress_fn exec "") ~executor:exec.executor ~tracer
                ?supervision cfg,
              None )
          | workers ->
            let res, rep = run_fabric ~workers ?supervision ~tracer ~exec cfg in
            (res, Some rep))
    in
    end_progress exec;
    print_campaign res;
    Option.iter print_fabric_report fabric_report;
    write_outputs outputs [ res ];
    (* last: the store/trace writers above may add salvage labels *)
    print_io_chaos_report ()
  in
  Cmd.v (Cmd.info "inject" ~doc:"Run one error-injection campaign")
    Term.(
      const run
      $ config_term ~injections:500
      $ exec_term $ outputs_term () $ supervision_term $ harness_fault_term $ workers_arg)

(* --- suite / report --- *)

let run_suite exec ~seed ~scale arch =
  let progress name = progress_fn exec (Printf.sprintf "%-4s %-8s " (arch_label arch) name) in
  let suite =
    Ferrite.Suite.run ~seed ~progress ~executor:exec.executor
      ~scale:(Ferrite.Suite.scaled arch scale) arch
  in
  end_progress exec;
  suite

let suite_cmd =
  let run arch scale seed exec outputs harness =
    arm_harness_fault harness;
    let suite = run_suite exec ~seed ~scale arch in
    print_string
      (match arch with
      | Image.Cisc -> Ferrite.Report.table5 suite
      | Image.Risc -> Ferrite.Report.table6 suite);
    print_newline ();
    write_outputs outputs
      Ferrite.Suite.[ suite.stack; suite.sysreg; suite.data; suite.code ];
    print_io_chaos_report ()
  in
  Cmd.v (Cmd.info "suite" ~doc:"Run the four campaigns of Table 5/6 for one platform")
    Term.(
      const run $ arch_arg $ scale_arg $ seed_arg 0x2004L $ exec_term
      $ outputs_term ~trace_dir:(Term.const None) ()
      $ harness_fault_term)

let report_cmd =
  let run scale seed exec from_store =
    match from_store with
    | Some path ->
      let aggs, sc = load_aggregates path in
      print_string (Ferrite.Report.from_store_report aggs);
      print_newline ();
      Printf.eprintf "(%d rows scanned in %d blocks, %d bytes)\n" sc.Store.sc_rows
        sc.Store.sc_blocks sc.Store.sc_bytes
    | None ->
      let p4 = run_suite exec ~seed ~scale Image.Cisc in
      let g4 = run_suite exec ~seed ~scale Image.Risc in
      print_string (Ferrite.Report.full_report ~p4 ~g4);
      print_newline ()
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run both platforms and regenerate every table and figure of the paper \
          (or answer from a result store with --from-store)")
    Term.(const run $ scale_arg $ seed_arg 0x2004L $ exec_term $ from_store_arg)

(* --- oops --- *)

let oops_cmd =
  let run arch kind seed =
    (* the campaign's own trial path, trial by trial, until a crash dump
       reaches the collector *)
    let cfg = { (Campaign.default ~arch ~kind ~injections:200) with Campaign.seed } in
    let env = Campaign.environment cfg in
    let cache = Trial.cache_create () in
    let crash =
      Seq.find_map
        (fun spec ->
          match Trial.run ~trace:Tracer.default_config env cache spec with
          | record, _, _, Some dump -> Some (record, dump)
          | _ -> None)
        (Array.to_seq (Campaign.plan cfg))
    in
    match crash with
    | None -> prerr_endline "no crash in 200 injections; try another seed"
    | Some (record, dump) ->
      Printf.printf "injection: %s\n" (Target.describe record.Outcome.r_target);
      (match record.Outcome.r_outcome with
      | Outcome.Known_crash { ci_cause; ci_latency; _ } ->
        Printf.printf "reported cause: %s (cycles-to-crash %d)\n\n"
          (Crash_cause.label ci_cause) ci_latency
      | _ -> ());
      print_string (Ferrite_injection.Oops.render_dump dump)
  in
  Cmd.v
    (Cmd.info "oops" ~doc:"Inject errors until one crashes, then print the kernel crash dump")
    Term.(const run $ arch_arg $ kind_arg $ seed_arg 0x2004L)

(* --- ablate --- *)

let ablate_cmd =
  let study_arg =
    let doc = "Run only the named study (default: all)." in
    Arg.(value & opt (some string) None & info [ "study" ] ~docv:"NAME" ~doc)
  in
  let n_arg =
    let doc = "Override the per-arm injection count." in
    Arg.(value & opt (some count) None & info [ "n" ] ~docv:"N" ~doc)
  in
  let run study n =
    let studies =
      match study with
      | None -> Ferrite.Ablation.all
      | Some name ->
        (match List.find_opt (fun s -> s.Ferrite.Ablation.ab_name = name) Ferrite.Ablation.all with
        | Some s -> [ s ]
        | None ->
          Printf.eprintf "unknown study %S; available: %s\n" name
            (String.concat ", "
               (List.map (fun s -> s.Ferrite.Ablation.ab_name) Ferrite.Ablation.all));
          exit 2)
    in
    let outcomes =
      List.map
        (fun s ->
          Printf.eprintf "running %s...\n%!" s.Ferrite.Ablation.ab_name;
          Ferrite.Ablation.run ?injections:n s)
        studies
    in
    print_endline (Ferrite.Ablation.report outcomes)
  in
  Cmd.v
    (Cmd.info "ablate"
       ~doc:"Rebuild the kernel with one mechanism changed and measure the effect")
    Term.(const run $ study_arg $ n_arg)

(* --- trace / triage: the paper's scenario replays --- *)

let scenarios_arg =
  let scenario =
    let parse n =
      match Scenario.find n with
      | Some sc -> Ok sc
      | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown scenario %S; available: %s" n
               (String.concat ", " (List.map (fun sc -> sc.Scenario.sc_name) Scenario.all))))
    in
    Arg.conv (parse, fun fmt sc -> Format.pp_print_string fmt sc.Scenario.sc_name)
  in
  let doc =
    "Paper scenario: fig7, fig13 or fig14 (omit for all three; triage \
     --from-store ignores it)."
  in
  Term.(
    const (Option.fold ~none:Scenario.all ~some:(fun sc -> [ sc ]))
    $ Arg.(value & pos 0 (some scenario) None & info [] ~docv:"SCENARIO" ~doc))

let trace_cmd =
  let run scenarios trace_dir =
    List.iteri
      (fun i sc ->
        if i > 0 then print_newline ();
        let r = Scenario.run sc in
        print_string (Scenario.render r);
        Option.iter
          (fun dir ->
            Printf.eprintf "wrote %s\n" (write_jsonl dir sc.Scenario.sc_name [ r.Scenario.trace ]))
          trace_dir)
      scenarios
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay a paper scenario (Figs. 7/13/14) as an annotated event timeline")
    Term.(const run $ scenarios_arg $ trace_dir_arg)

let triage_cmd =
  let run scenarios from_store =
    match from_store with
    | Some path ->
      let aggs, sc = load_aggregates path in
      List.iteri
        (fun i (a : Result_store.agg) ->
          if i > 0 then print_newline ();
          print_endline
            (Ferrite.Report.triage_table ~arch:a.Result_store.ag_arch
               ~kind:a.Result_store.ag_kind a.Result_store.ag_triage))
        aggs;
      Printf.eprintf "(%d rows scanned in %d blocks, %d bytes)\n" sc.Store.sc_rows
        sc.Store.sc_blocks sc.Store.sc_bytes
    | None ->
      List.iteri
        (fun i sc ->
          if i > 0 then print_newline ();
          let r = Scenario.run sc in
          let record = r.Scenario.outcome in
          Printf.printf "%s\n" sc.Scenario.sc_title;
          Printf.printf "  target:  %s\n" (Target.describe r.Scenario.target);
          Printf.printf "  outcome: %s\n"
            (Ferrite_injection.Outcome.outcome_label
               record.Ferrite_injection.Outcome.r_outcome);
          (match Triage.of_record record r.Scenario.dump with
          | None -> Printf.printf "  triage:  (not a failure)\n"
          | Some bucket -> Printf.printf "  triage:  %s\n" (Triage.label bucket));
          Option.iter
            (fun (d : Ferrite_injection.Crash_dump.t) ->
              Printf.printf "  crash:   pc=%s in %s; SP %s; repeat signature: %s\n"
                (Ferrite_machine.Word.to_hex d.Ferrite_injection.Crash_dump.cd_pc)
                d.Ferrite_injection.Crash_dump.cd_function
                (if d.Ferrite_injection.Crash_dump.cd_sp_in_stack then "in a kernel stack"
                 else "outside every kernel stack")
                (if d.Ferrite_injection.Crash_dump.cd_stack_repeat then "yes" else "no"))
            r.Scenario.dump)
        scenarios
  in
  Cmd.v
    (Cmd.info "triage"
       ~doc:
         "Bucket crashes into the paper's sec. 5 root-cause families - either a \
          stored campaign (--from-store) or the Figs. 7/13/14 scenario replays")
    Term.(const run $ scenarios_arg $ from_store_arg)

(* --- fuzz --- *)

let fuzz_cmd =
  let budget_arg =
    let doc = "Wall-clock budget in seconds." in
    Arg.(value & opt float 30.0 & info [ "time-budget" ] ~docv:"SECS" ~doc)
  in
  let out_arg =
    let doc = "Directory where shrunk reproducers are written." in
    Arg.(value & opt string "test/repro" & info [ "out-dir" ] ~docv:"DIR" ~doc)
  in
  let run budget seed out_dir =
    let module Fz = Ferrite_check.Fuzz in
    let t0 = Unix.gettimeofday () in
    let deadline = t0 +. budget in
    let counts = Fz.fresh_counts () in
    let found = ref None in
    let round = ref 0 in
    while Option.is_none !found && Unix.gettimeofday () < deadline do
      (* each round derives its own stream from the base seed *)
      let rng = Ferrite_machine.Rng.create_derived ~seed ~index:!round in
      incr round;
      let passes =
        [
          (fun () -> Fz.fuzz_cisc_streams ~rng ~count:1_000 ~len:16 counts);
          (fun () -> Fz.fuzz_risc_streams ~rng ~count:1_000 ~len:16 counts);
          (fun () -> Fz.fuzz_cisc_robust ~rng ~count:300 ~len:16 counts);
          (fun () -> Fz.fuzz_risc_robust ~rng ~count:300 ~len:16 counts);
          (fun () -> Fz.fuzz_diff ~rng ~specs:4 ~injections:8 ~step_budget:150_000 counts);
        ]
      in
      List.iter
        (fun pass ->
          if Option.is_none !found && Unix.gettimeofday () < deadline then
            match pass () with Some f -> found := Some f | None -> ())
        passes
    done;
    Printf.printf "fuzz: %d round(s); %s; %.1fs\n" !round (Fz.render_counts counts)
      (Unix.gettimeofday () -. t0);
    match !found with
    | None -> print_endline "fuzz: no violations found"
    | Some f ->
      let path = Ferrite_check.Repro.save ~dir:out_dir f.Fz.f_repro in
      Printf.printf "fuzz: VIOLATION: %s\nfuzz: reproducer written to %s\n" f.Fz.f_msg
        path;
      exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz the instruction encoders/decoders and the differential fault-trial \
          oracle until the time budget runs out; shrunk reproducers land in --out-dir")
    Term.(const run $ budget_arg $ seed_arg 1L $ out_arg)

(* --- disasm --- *)

let disasm_cmd =
  let fn_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FUNCTION" ~doc:"Kernel function name.")
  in
  let run arch fn =
    let image = Boot.build_image arch in
    let f = Image.find_func image fn in
    let mem = Ferrite_machine.Memory.create () in
    Ferrite_machine.Memory.map mem ~addr:image.Image.img_text_base
      ~size:(max 4096 (Image.text_size image))
      ~perm:Ferrite_machine.Memory.perm_rwx;
    Ferrite_machine.Memory.blit_string mem ~addr:image.Image.img_text_base image.Image.img_text;
    Printf.printf "%s: %s (%d bytes at %08x)\n" fn (arch_label arch) f.Image.fs_size
      f.Image.fs_addr;
    (match arch with
    | Image.Cisc ->
      let rec go addr =
        if addr < f.Image.fs_addr + f.Image.fs_size then begin
          match Ferrite_cisc.Disasm.window ~count:1 ~mem addr with
          | [ (a, len, text) ] ->
            Printf.printf "  %08x: %s\n" a text;
            go (a + len)
          | _ -> ()
        end
      in
      go f.Image.fs_addr
    | Image.Risc ->
      List.iter
        (fun (a, text) -> Printf.printf "  %08x: %s\n" a text)
        (Ferrite_risc.Disasm.window ~count:(f.Image.fs_size / 4) ~mem f.Image.fs_addr))
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Disassemble a kernel function") Term.(const run $ arch_arg $ fn_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "ferrite" ~version:"1.0.0"
      ~doc:"Error sensitivity of a miniature kernel on CISC/RISC simulators (DSN 2004 reproduction)"
  in
  exit (Cmd.eval (Cmd.group ~default info [ boot_cmd; profile_cmd; inject_cmd; suite_cmd; report_cmd; ablate_cmd; oops_cmd; disasm_cmd; trace_cmd; triage_cmd; fuzz_cmd ]))
