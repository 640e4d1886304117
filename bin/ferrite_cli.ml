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
     worker    serve one campaign as a fabric worker over stdin/stdout *)

open Cmdliner
module Image = Ferrite_kir.Image
module System = Ferrite_kernel.System
module Boot = Ferrite_kernel.Boot
module Campaign = Ferrite_injection.Campaign
module Target = Ferrite_injection.Target
module Crash_cause = Ferrite_injection.Crash_cause
module Supervisor = Ferrite_injection.Supervisor
module Journal = Ferrite_injection.Journal
module Fault_model = Ferrite_injection.Fault_model
module Result_store = Ferrite_injection.Result_store
module Store = Ferrite_store.Store
module Triage = Ferrite_injection.Triage
module Fabric = Ferrite_fabric.Fabric
module Wire = Ferrite_fabric.Wire
module Iofault = Ferrite_iofault.Iofault

let arch_conv =
  let parse = function
    | "p4" | "P4" | "cisc" -> Ok Image.Cisc
    | "g4" | "G4" | "risc" -> Ok Image.Risc
    | s -> Error (`Msg (Printf.sprintf "unknown architecture %S (use p4 or g4)" s))
  in
  let print fmt a =
    Format.pp_print_string fmt (match a with Image.Cisc -> "p4" | Image.Risc -> "g4")
  in
  Arg.conv (parse, print)

let arch_arg =
  let doc = "Target platform: p4 (CISC) or g4 (RISC)." in
  Arg.(value & opt arch_conv Image.Cisc & info [ "a"; "arch" ] ~docv:"ARCH" ~doc)

let seed_arg =
  let doc = "Deterministic seed for the campaign RNG." in
  Arg.(value & opt int 0x2004 & info [ "seed" ] ~docv:"SEED" ~doc)

let progress_arg =
  let doc = "Print progress to stderr." in
  Arg.(value & flag & info [ "progress" ] ~doc)

let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
    | Some n when n < 0 ->
      Error (`Msg (Printf.sprintf "--jobs %d: a worker count cannot be negative" n))
    | Some n -> Ok n
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  let doc =
    "Number of worker domains for campaign execution (0 = one per core; \
     values beyond the core count are clamped, since extra domains only add \
     per-worker boots). Results are bit-identical for every value; only \
     wall-clock time changes."
  in
  Arg.(value & opt jobs_conv 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let executor_of_jobs jobs =
  if jobs = 0 then Ferrite_injection.Executor.auto ()
  else Ferrite_injection.Executor.of_jobs jobs

(* --- distributed fabric flags (inject) --- *)

let workers_arg =
  let doc =
    "Run the campaign on the distributed fabric with $(docv) worker \
     processes (forked; see --distributed for exec'd workers). The merged \
     records, traces and store bytes are byte-identical to --jobs 1 for \
     every worker count; only the fabric diagnostics differ."
  in
  Arg.(value & opt int 0 & info [ "workers" ] ~docv:"N" ~doc)

let distributed_arg =
  let doc =
    "Spawn fabric workers as fresh 'ferrite worker' processes over \
     stdin/stdout links instead of forked copies (implies --workers 2 \
     unless --workers is given)."
  in
  Arg.(value & flag & info [ "distributed" ] ~doc)

let wire_chaos_conv =
  let parse s =
    let mk d u r = { Wire.wc_drop = d; wc_dup = u; wc_reorder = r } in
    let chaos =
      match List.map float_of_string_opt (String.split_on_char ',' s) with
      | [ Some d ] -> Some (mk d 0.0 0.0)
      | [ Some d; Some u; Some r ] -> Some (mk d u r)
      | _ -> None
    in
    match chaos with
    | None ->
      Error (`Msg (Printf.sprintf "%S is not DROP or DROP,DUP,REORDER" s))
    | Some c ->
      (match Wire.validated_chaos c with
      | c -> Ok c
      | exception Invalid_argument msg -> Error (`Msg msg))
  in
  let print fmt c =
    Format.fprintf fmt "%g,%g,%g" c.Wire.wc_drop c.Wire.wc_dup c.Wire.wc_reorder
  in
  Arg.conv (parse, print)

let wire_chaos_arg =
  let doc =
    "Arm seeded drop/duplicate/reorder chaos on every fabric link, both \
     directions ($(docv) = DROP or DROP,DUP,REORDER, rates in [0,1]). The \
     campaign still merges byte-identical; only retransmission and lease \
     diagnostics move. Requires --workers/--distributed."
  in
  Arg.(value & opt (some wire_chaos_conv) None & info [ "wire-chaos" ] ~docv:"RATES" ~doc)

(* --- seeded I/O fault layer (inject / suite / worker) --- *)

let io_chaos_arg =
  let doc =
    "Arm the seeded I/O fault layer with seed $(docv): every journal, store, \
     trace and fabric-wire descriptor is perturbed with EINTR/EAGAIN, short \
     reads and writes, delays, and (on half the seeds) a disk-full onset \
     drawn in [16 KiB, 64 KiB). Retriable faults are absorbed and the output \
     stays byte-identical; ENOSPC/EIO degrade loudly to a reported salvage \
     state. Deterministic: the same seed replays the same faults."
  in
  Arg.(value & opt (some int64) None & info [ "io-chaos" ] ~docv:"SEED" ~doc)

let io_enospc_after_arg =
  let doc =
    "With --io-chaos, override the plan's disk-full onset: the global byte \
     budget shared by all file writers is exhausted after $(docv) bytes \
     (the ENOSPC-onset sweep knob from EXPERIMENTS.md)."
  in
  Arg.(value & opt (some int) None & info [ "io-enospc-after" ] ~docv:"BYTES" ~doc)

let arm_io_chaos ~io_chaos ~io_enospc_after =
  match (io_chaos, io_enospc_after) with
  | None, None -> ()
  | None, Some _ ->
    Printf.eprintf "ferrite: --io-enospc-after needs --io-chaos\n";
    exit 2
  | Some seed, onset ->
    let plan = Iofault.plan_of_seed seed in
    let plan =
      match onset with
      | None -> plan
      | Some n ->
        if n < 0 then begin
          Printf.eprintf "ferrite: --io-enospc-after must be non-negative\n";
          exit 2
        end;
        { plan with Iofault.pl_enospc_after = Some n }
    in
    Iofault.arm ~plan ~seed ()

(* Printed after any campaign that ran with --io-chaos: the fault/retry
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

let print_fabric_report (rep : Fabric.report) =
  Printf.printf "fabric:          %d worker(s): %d fresh result(s), %d duplicate(s) dropped\n"
    rep.Fabric.fb_workers rep.Fabric.fb_results rep.Fabric.fb_dup_results;
  if rep.Fabric.fb_steals > 0 || rep.Fabric.fb_expired > 0 then
    Printf.printf "  work stealing: %d steal(s), %d non-empty return(s), %d lease(s) expired\n"
      rep.Fabric.fb_steals rep.Fabric.fb_steal_returns rep.Fabric.fb_expired;
  if rep.Fabric.fb_worker_deaths > 0 || rep.Fabric.fb_left > 0 then
    Printf.printf "  fleet churn:   %d death(s) (%d trial(s) re-leased), %d orderly leave(s)\n"
      rep.Fabric.fb_worker_deaths rep.Fabric.fb_requeued rep.Fabric.fb_left;
  if rep.Fabric.fb_hung > 0 then
    Printf.printf "  hung workers:  %d declared dead past the heartbeat deadline\n"
      rep.Fabric.fb_hung;
  if rep.Fabric.fb_missing > 0 then
    Printf.printf
      "  SALVAGE STATE: %d trial(s) not merged (drained); percentages above cover the \
       completed subset only\n"
      rep.Fabric.fb_missing;
  if rep.Fabric.fb_retransmitted > 0 then
    Printf.printf "  retransmitted: %d result send(s) repeated\n" rep.Fabric.fb_retransmitted;
  List.iter
    (fun (i, reason) -> Printf.printf "  trial %d quarantined: %s\n" i reason)
    rep.Fabric.fb_quarantined

(* Drive the controller by hand (rather than [Fabric.run_campaign]) so
   --progress can watch trials merge, and so SIGTERM/SIGINT can flip the
   drain flag: the loop below exits, [finish] salvages what is merged, and
   the process still prints a (partial) report and a valid journal. *)
let run_fabric ~workers ~distributed ~(supervision : Campaign.supervision) ~tracer ?wire_chaos
    ~worker_args ~progress cfg =
  let { Campaign.sv_policy; sv_chaos; sv_journal; sv_resume } = supervision in
  let c =
    Fabric.Controller.create ~policy:sv_policy ~chaos:sv_chaos ~tracer ?wire_chaos
      ?journal:sv_journal ~resume:sv_resume cfg
  in
  let install signal =
    try
      ignore
        (Sys.signal signal (Sys.Signal_handle (fun _ -> Fabric.Controller.request_drain c)))
    with Invalid_argument _ | Sys_error _ -> ()
  in
  install Sys.sigterm;
  install Sys.sigint;
  for _ = 1 to workers do
    if distributed then
      ignore
        (Fabric.Controller.add_exec_worker c ~prog:Sys.executable_name
           ~args:(Array.append [| Sys.executable_name; "worker" |] worker_args))
    else ignore (Fabric.Controller.add_worker c)
  done;
  let total = cfg.Campaign.injections in
  let last = ref (-1) in
  while (not (Fabric.Controller.finished c)) && not (Fabric.Controller.draining c) do
    Fabric.Controller.step c ~timeout:0.05;
    let done_ = Fabric.Controller.completed c in
    if progress && done_ <> !last && (done_ mod 100 = 0 || done_ = total) then begin
      last := done_;
      Printf.eprintf "\r%d/%d%!" done_ total
    end
  done;
  Fabric.Controller.finish c

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

let kind_conv =
  let parse = function
    | "stack" -> Ok Target.Stack
    | "data" -> Ok Target.Data
    | "code" -> Ok Target.Code
    | "register" | "sysreg" -> Ok Target.Register
    | s -> Error (`Msg (Printf.sprintf "unknown campaign kind %S" s))
  in
  let print fmt k =
    Format.pp_print_string fmt
      (match k with
      | Target.Stack -> "stack"
      | Target.Data -> "data"
      | Target.Code -> "code"
      | Target.Register -> "register")
  in
  Arg.conv (parse, print)

let kind_arg =
  let doc = "Campaign kind: stack, data, code or register." in
  Arg.(value & opt kind_conv Target.Stack & info [ "k"; "kind" ] ~docv:"KIND" ~doc)

let count_arg =
  let doc = "Number of error injections." in
  Arg.(value & opt int 500 & info [ "n" ] ~docv:"N" ~doc)

let fault_model_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Fault_model.of_string s) in
  let print fmt m = Format.pp_print_string fmt (Fault_model.tag m) in
  Arg.conv (parse, print)

let fault_model_arg =
  let doc =
    "Fault model to inject (default single_bit, the paper's transient flip). \
     Accepts " ^ Fault_model.spec_doc ^ "."
  in
  Arg.(
    value
    & opt fault_model_conv Fault_model.Single_bit_transient
    & info [ "fault-model" ] ~docv:"MODEL" ~doc)

let targeting_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Target.targeting_of_string s) in
  let print fmt t = Format.pp_print_string fmt (Target.targeting_tag t) in
  Arg.conv (parse, print)

let targeting_arg =
  let doc =
    "Targeting policy for the STEP-1 draw (default uniform, the paper's). \
     Accepts " ^ Target.targeting_doc ^ "."
  in
  Arg.(value & opt targeting_conv Target.Uniform & info [ "targeting" ] ~docv:"POLICY" ~doc)

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

let ensure_dir dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then failwith (dir ^ " exists and is not a directory")

let kind_name = function
  | Target.Stack -> "stack"
  | Target.Data -> "data"
  | Target.Code -> "code"
  | Target.Register -> "register"

(* --trace-dir: dump the campaign's event stream as JSONL plus its telemetry
   counters, one file pair per campaign *)
let dump_campaign_trace dir (res : Campaign.result) =
  ensure_dir dir;
  let stem =
    Printf.sprintf "%s-%s"
      (match res.Campaign.cfg.Campaign.arch with Image.Cisc -> "p4" | Image.Risc -> "g4")
      (kind_name res.Campaign.cfg.Campaign.kind)
  in
  let jsonl = Filename.concat dir (stem ^ ".jsonl") in
  let complete = Ferrite_trace.Jsonl.write_trials_path jsonl res.Campaign.traces in
  if not complete then
    Printf.eprintf "ferrite: %s is a partial trace (writer degraded)\n" jsonl;
  let telemetry = Filename.concat dir (stem ^ "-telemetry.json") in
  let oc = open_out telemetry in
  output_string oc (Ferrite_trace.Telemetry.to_json res.Campaign.telemetry);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "wrote %s and %s\n" jsonl telemetry

let trace_dir_arg =
  let doc =
    "Write the campaign's event stream to $(docv) as JSONL (one file per \
     campaign, plus a telemetry .json); implies per-trial event retention."
  in
  Arg.(value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR" ~doc)

(* --- columnar result store --- *)

let store_arg =
  let doc =
    "Write every trial's result (outcome, cause, latency, triage bucket, \
     ...) to the columnar store at $(docv); an existing file is replaced \
     unless --store-append is given. Query later with 'report --from-store' \
     and 'triage --from-store'."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"FILE" ~doc)

let store_append_arg =
  let doc = "With --store, append to an existing store instead of replacing it." in
  Arg.(value & flag & info [ "store-append" ] ~doc)

let write_store ?(append = false) path results =
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

(* --- supervision flags (inject) --- *)

let journal_arg =
  let doc =
    "Checkpoint every completed trial to $(docv) (CRC-framed, append-only). \
     Names a new journal: an existing file at the path is replaced."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let resume_arg =
  let doc =
    "Resume the campaign recorded in $(docv): trials already journalled are \
     served from the file instead of re-run, the torn tail (if the previous \
     run was killed mid-append) is truncated, and new trials keep appending. \
     The result is byte-identical to an uninterrupted run for every --jobs. \
     A journal written for a different plan (seed, kind, count, ...) is \
     rejected."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)

let max_retries_arg =
  let doc =
    "Retry a trial that crashed the harness (or overran its host deadline) \
     up to $(docv) times from a fresh boot, with exponential backoff, before \
     quarantining it as an infrastructure failure; quarantined trials are \
     excluded from the outcome percentages. Passing the flag enables \
     supervision even without a journal."
  in
  Arg.(value & opt (some int) None & info [ "max-retries" ] ~docv:"N" ~doc)

let chaos_arg =
  let doc =
    "Chaos drill: plant worker exceptions, a host-deadline overrun and a \
     collector outage window at seeded trial indices, then let supervision \
     prove it degrades gracefully."
  in
  Arg.(value & flag & info [ "chaos" ] ~doc)

let collector_loss_arg =
  let doc = "Crash-dump loss probability of the collector channel (default 0.12)." in
  Arg.(value & opt (some float) None & info [ "collector-loss" ] ~docv:"P" ~doc)

let collector_retries_arg =
  let doc =
    "Bounded dump-retransmission budget per crash (default 0 = the paper's \
     single-shot channel). Duplicates are dropped by sequence number."
  in
  Arg.(value & opt (some int) None & info [ "collector-retries" ] ~docv:"N" ~doc)

(* The one supervision value of an inject run, for the in-process
   supervisor and the fabric controller alike. --journal/--resume resolve
   to one (path, resuming) pair: --resume names the journal it keeps
   appending to. *)
let supervision_of ~journal ~resume ~max_retries ~chaos ~seed ~injections =
  let sv_journal, sv_resume =
    match (resume, journal) with
    | Some r, Some j when r <> j ->
      Printf.eprintf
        "ferrite: --journal and --resume name different files; --resume %s already \
         appends to the journal it resumes\n"
        r;
      exit 2
    | Some r, _ -> (Some r, true)
    | None, j -> (j, false)
  in
  if sv_journal = None && max_retries = None && not chaos then None
  else
    Some
      {
        Campaign.sv_policy =
          Option.fold max_retries ~none:Supervisor.default_policy ~some:(fun n ->
              { Supervisor.default_policy with Supervisor.sp_max_retries = n });
        sv_chaos =
          (if chaos then Supervisor.drill_plan ~seed ~injections else Supervisor.no_chaos);
        sv_journal;
        sv_resume;
      }

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

let inject_cmd =
  let run arch kind n seed progress jobs trace_dir journal resume max_retries chaos
      collector_loss collector_retries fault_model targeting store store_append workers
      distributed wire_chaos io_chaos io_enospc_after =
    arm_io_chaos ~io_chaos ~io_enospc_after;
    let cfg =
      {
        (Campaign.default ~arch ~kind ~injections:n) with
        Campaign.seed = Int64.of_int seed;
        fault_model;
        targeting;
      }
    in
    let cfg =
      match collector_loss with
      | None -> cfg
      | Some p -> { cfg with Campaign.collector_loss = p }
    in
    let cfg =
      match collector_retries with
      | None -> cfg
      | Some r -> { cfg with Campaign.collector_retries = r }
    in
    let tracer =
      match trace_dir with
      | None -> Ferrite_trace.Tracer.telemetry_only
      | Some _ -> Ferrite_trace.Tracer.default_config
    in
    (* one supervision value feeds both schedulers: the fabric controller
       takes the same policy, drill plan and journal as the in-process run *)
    let supervision =
      supervision_of ~journal ~resume ~max_retries ~chaos ~seed:cfg.Campaign.seed
        ~injections:n
    in
    let res, fabric_report =
      if workers > 0 || distributed then begin
        (* exec'd workers are fresh processes: the fault plan must ride the
           argv (forked workers inherit the armed state) *)
        let worker_args =
          match io_chaos with
          | None -> [||]
          | Some s ->
            Array.of_list
              ([ "--io-chaos"; Int64.to_string s ]
              @
              match io_enospc_after with
              | None -> []
              | Some b -> [ "--io-enospc-after"; string_of_int b ])
        in
        let r, rep =
          with_journal_errors (fun () ->
              run_fabric
                ~workers:(if workers > 0 then workers else 2)
                ~distributed
                ~supervision:(Option.value supervision ~default:Campaign.default_supervision)
                ~tracer ?wire_chaos ~worker_args ~progress cfg)
        in
        (r, Some rep)
      end
      else begin
        if wire_chaos <> None then begin
          Printf.eprintf "ferrite: --wire-chaos needs --workers or --distributed\n";
          exit 2
        end;
        let progress_fn ~done_ ~total =
          if progress && (done_ mod 100 = 0 || done_ = total) then
            Printf.eprintf "\r%d/%d%!" done_ total
        in
        let res =
          with_journal_errors (fun () ->
              Campaign.run ~progress:progress_fn ~executor:(executor_of_jobs jobs)
                ~tracer ?supervision cfg)
        in
        (res, None)
      end
    in
    if progress then Printf.eprintf "\n";
    print_campaign res;
    Option.iter print_fabric_report fabric_report;
    (* non-legacy config: add the per-model Table 5/6 breakout (a resumed
       journal may carry several models, hence groups, not one row) *)
    if fault_model <> Fault_model.Single_bit_transient || targeting <> Target.Uniform
    then begin
      print_newline ();
      print_endline (Ferrite.Report.model_breakout res)
    end;
    Option.iter (fun dir -> dump_campaign_trace dir res) trace_dir;
    Option.iter (fun path -> write_store ~append:store_append path [ res ]) store;
    (* last: the store/trace writers above may add salvage labels *)
    print_io_chaos_report ()
  in
  Cmd.v (Cmd.info "inject" ~doc:"Run one error-injection campaign")
    Term.(
      const run $ arch_arg $ kind_arg $ count_arg $ seed_arg $ progress_arg $ jobs_arg
      $ trace_dir_arg $ journal_arg $ resume_arg $ max_retries_arg
      $ chaos_arg $ collector_loss_arg $ collector_retries_arg $ fault_model_arg
      $ targeting_arg $ store_arg $ store_append_arg $ workers_arg $ distributed_arg
      $ wire_chaos_arg $ io_chaos_arg $ io_enospc_after_arg)

(* --- matrix --- *)

let matrix_cmd =
  let arch_opt_arg =
    let doc = "Restrict the sweep to one platform (default: both p4 and g4)." in
    Arg.(value & opt (some arch_conv) None & info [ "a"; "arch" ] ~docv:"ARCH" ~doc)
  in
  let matrix_count_arg =
    let doc = "Injections per (model, platform) cell." in
    Arg.(value & opt int 200 & info [ "n" ] ~docv:"N" ~doc)
  in
  let run arch_opt kind n seed progress jobs targeting =
    let module Table = Ferrite_stats.Table in
    let arches =
      match arch_opt with Some a -> [ a ] | None -> [ Image.Cisc; Image.Risc ]
    in
    let executor = executor_of_jobs jobs in
    let cell arch model =
      let cfg =
        {
          (Campaign.default ~arch ~kind ~injections:n) with
          Campaign.seed = Int64.of_int seed;
          fault_model = model;
          targeting;
        }
      in
      let progress_fn ~done_ ~total =
        if progress && (done_ mod 50 = 0 || done_ = total) then
          Printf.eprintf "\r%-4s %-16s %5d/%d%!"
            (match arch with Image.Cisc -> "P4" | Image.Risc -> "G4")
            (Fault_model.tag model) done_ total
      in
      let res = Campaign.run ~progress:progress_fn ~executor cfg in
      let s = Campaign.summarize res in
      let d =
        if s.Campaign.activation_known then max 1 s.Campaign.activated
        else max 1 s.Campaign.injected
      in
      [
        (match arch with Image.Cisc -> "P4" | Image.Risc -> "G4")
        ^ " " ^ kind_name kind;
        string_of_int s.Campaign.injected;
        (if s.Campaign.activation_known then
           Printf.sprintf "%d (%s)" s.Campaign.activated
             (Table.pct s.Campaign.activated s.Campaign.injected)
         else "N/A");
        Table.count_pct s.Campaign.not_manifested d;
        Table.count_pct s.Campaign.fsv d;
        Table.count_pct s.Campaign.known_crash d;
        Table.count_pct s.Campaign.hang_or_unknown d;
      ]
    in
    let groups =
      List.map
        (fun model ->
          (Printf.sprintf "%s — %s" (Fault_model.tag model) (Fault_model.describe model),
           List.map (fun arch -> cell arch model) arches))
        Fault_model.sweep_models
    in
    if progress then Printf.eprintf "\n";
    let header =
      [ "Campaign"; "Injected"; "Activated"; "Not Manifested"; "FSV"; "Known Crash";
        "Hang/Unknown" ]
    in
    Printf.printf "Fault-model matrix (%s targets, %s targeting, %d injections per cell)\n"
      (kind_name kind) (Target.targeting_tag targeting) n;
    print_string (Table.render_grouped ~header groups);
    print_endline "\n(percentages w.r.t. activated errors; activation w.r.t. injected)"
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:
         "Sweep the canonical fault models over one campaign kind on both \
          platforms and print the grouped Table 5/6-style breakout")
    Term.(
      const run $ arch_opt_arg $ kind_arg $ matrix_count_arg $ seed_arg $ progress_arg
      $ jobs_arg $ targeting_arg)

(* --- suite / report --- *)

let scale_arg =
  let doc =
    "Scale factor applied to the paper's campaign sizes (1.0 = the full \
     115,000-injection study)."
  in
  Arg.(value & opt float 0.02 & info [ "scale" ] ~docv:"S" ~doc)

let progress_fn progress arch =
  if progress then (fun name ~done_ ~total ->
    if done_ mod 100 = 0 || done_ = total then
      Printf.eprintf "\r%-4s %-8s %6d/%d%!"
        (match arch with Image.Cisc -> "P4" | Image.Risc -> "G4")
        name done_ total)
  else fun _ ~done_:_ ~total:_ -> ()

let suite_campaigns (suite : Ferrite.Suite.t) =
  [
    suite.Ferrite.Suite.stack;
    suite.Ferrite.Suite.sysreg;
    suite.Ferrite.Suite.data;
    suite.Ferrite.Suite.code;
  ]

let suite_cmd =
  let run arch scale seed progress jobs store store_append io_chaos io_enospc_after =
    arm_io_chaos ~io_chaos ~io_enospc_after;
    let sc = Ferrite.Suite.scaled arch scale in
    let suite =
      Ferrite.Suite.run ~seed:(Int64.of_int seed) ~progress:(progress_fn progress arch)
        ~executor:(executor_of_jobs jobs) ~scale:sc arch
    in
    if progress then Printf.eprintf "\n";
    print_string
      (match arch with
      | Image.Cisc -> Ferrite.Report.table5 suite
      | Image.Risc -> Ferrite.Report.table6 suite);
    print_newline ();
    Option.iter
      (fun path -> write_store ~append:store_append path (suite_campaigns suite))
      store;
    print_io_chaos_report ()
  in
  Cmd.v (Cmd.info "suite" ~doc:"Run the four campaigns of Table 5/6 for one platform")
    Term.(
      const run $ arch_arg $ scale_arg $ seed_arg $ progress_arg $ jobs_arg
      $ store_arg $ store_append_arg $ io_chaos_arg
      $ io_enospc_after_arg)

let from_store_arg =
  let doc =
    "Answer from the columnar result store at $(docv) instead of running \
     campaigns: a single streaming pass rebuilds Table 5/6, the per-model \
     breakouts and the triage tables — byte-identical to the in-memory \
     report over the same records."
  in
  Arg.(value & opt (some string) None & info [ "from-store" ] ~docv:"FILE" ~doc)

let report_cmd =
  let run scale seed progress jobs from_store =
    match from_store with
    | Some path ->
      let aggs, sc = load_aggregates path in
      print_string (Ferrite.Report.from_store_report aggs);
      print_newline ();
      Printf.eprintf "(%d rows scanned in %d blocks, %d bytes)\n" sc.Store.sc_rows
        sc.Store.sc_blocks sc.Store.sc_bytes
    | None ->
      let seed = Int64.of_int seed in
      let executor = executor_of_jobs jobs in
      let p4 =
        Ferrite.Suite.run ~seed ~progress:(progress_fn progress Image.Cisc) ~executor
          ~scale:(Ferrite.Suite.scaled Image.Cisc scale) Image.Cisc
      in
      if progress then Printf.eprintf "\n";
      let g4 =
        Ferrite.Suite.run ~seed ~progress:(progress_fn progress Image.Risc) ~executor
          ~scale:(Ferrite.Suite.scaled Image.Risc scale) Image.Risc
      in
      if progress then Printf.eprintf "\n";
      print_string (Ferrite.Report.full_report ~p4 ~g4);
      print_newline ()
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run both platforms and regenerate every table and figure of the paper \
          (or answer from a result store with --from-store)")
    Term.(const run $ scale_arg $ seed_arg $ progress_arg $ jobs_arg $ from_store_arg)

(* --- oops --- *)

let oops_cmd =
  let run arch kind seed =
    (* inject until something crashes, then print the kernel's crash dump *)
    let image = Boot.build_image arch in
    let rng = Ferrite_machine.Rng.create ~seed:(Int64.of_int seed) in
    let hot = [ ("kmemcpy", 0.4); ("schedule", 0.3); ("getblk", 0.3) ] in
    let rec attempt n =
      if n = 0 then prerr_endline "no crash in 200 injections; try another seed"
      else begin
        let sys = Boot.boot ~image arch in
        let wl = Ferrite_workload.Workload.mix ~ops:12 () in
        let runner =
          Ferrite_workload.Runner.create sys
            ~ops:(wl.Ferrite_workload.Workload.wl_ops rng)
        in
        let target = Target.generate sys kind ~hot rng in
        let collector = Ferrite_injection.Collector.create ~loss_rate:0.0 ~seed:1L () in
        (* drive manually so the faulted machine state is still in hand *)
        let record =
          Ferrite_injection.Engine.run_one ~sys ~runner ~target ~collector
            Ferrite_injection.Engine.default_config
        in
        match record.Ferrite_injection.Outcome.r_outcome with
        | Ferrite_injection.Outcome.Known_crash { ci_cause; ci_latency; _ } ->
          Printf.printf "injection: %s\n" (Target.describe target);
          Printf.printf "reported cause: %s (cycles-to-crash %d)\n\n"
            (Crash_cause.label ci_cause) ci_latency;
          (* the machine is still at the crash point: render its dump *)
          print_endline (Ferrite_injection.Oops.registers sys);
          print_newline ();
          print_endline (Ferrite_injection.Oops.code_window sys);
          print_newline ();
          print_endline (Ferrite_injection.Oops.stack_dump sys);
          if Ferrite_injection.Oops.stack_overflow_signature sys then
            print_endline "Note: repeating return-address pattern - stack overflow suspected"
        | _ -> attempt (n - 1)
      end
    in
    attempt 200
  in
  Cmd.v
    (Cmd.info "oops" ~doc:"Inject errors until one crashes, then print the kernel crash dump")
    Term.(const run $ arch_arg $ kind_arg $ seed_arg)

(* --- ablate --- *)

let ablate_cmd =
  let study_arg =
    let doc = "Run only the named study (default: all)." in
    Arg.(value & opt (some string) None & info [ "study" ] ~docv:"NAME" ~doc)
  in
  let n_arg =
    let doc = "Override the per-arm injection count." in
    Arg.(value & opt (some int) None & info [ "n" ] ~docv:"N" ~doc)
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

(* --- trace --- *)

let trace_cmd =
  let scenario_arg =
    let doc =
      "Scenario to replay: fig7, fig13 or fig14 (omit to replay all three)."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc)
  in
  let run name jobs trace_dir =
    let scenarios =
      match name with
      | None -> Ferrite.Scenario.all
      | Some n ->
        (match Ferrite.Scenario.find n with
        | Some sc -> [ sc ]
        | None ->
          Printf.eprintf "unknown scenario %S; available: %s\n" n
            (String.concat ", "
               (List.map (fun sc -> sc.Ferrite.Scenario.sc_name) Ferrite.Scenario.all));
          exit 2)
    in
    let executor = executor_of_jobs jobs in
    List.iteri
      (fun i sc ->
        if i > 0 then print_newline ();
        let r = Ferrite.Scenario.run ~executor sc in
        print_string (Ferrite.Scenario.render r);
        Option.iter
          (fun dir ->
            ensure_dir dir;
            let path = Filename.concat dir (sc.Ferrite.Scenario.sc_name ^ ".jsonl") in
            let oc = open_out path in
            Ferrite_trace.Jsonl.write_trials oc [ r.Ferrite.Scenario.trace ];
            close_out oc;
            Printf.eprintf "wrote %s\n" path)
          trace_dir)
      scenarios
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay a paper scenario (Figs. 7/13/14) as an annotated event timeline; \
          identical output for every --jobs value")
    Term.(const run $ scenario_arg $ jobs_arg $ trace_dir_arg)

(* --- triage --- *)

let triage_cmd =
  let scenario_arg =
    let doc =
      "Scenario to triage: fig7, fig13 or fig14 (omit to triage all three). \
       Ignored with --from-store."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc)
  in
  let run name jobs from_store =
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
      let scenarios =
        match name with
        | None -> Ferrite.Scenario.all
        | Some n ->
          (match Ferrite.Scenario.find n with
          | Some sc -> [ sc ]
          | None ->
            Printf.eprintf "unknown scenario %S; available: %s\n" n
              (String.concat ", "
                 (List.map (fun sc -> sc.Ferrite.Scenario.sc_name) Ferrite.Scenario.all));
            exit 2)
      in
      let executor = executor_of_jobs jobs in
      List.iteri
        (fun i sc ->
          if i > 0 then print_newline ();
          let r = Ferrite.Scenario.run ~executor sc in
          let record = r.Ferrite.Scenario.outcome in
          Printf.printf "%s\n" sc.Ferrite.Scenario.sc_title;
          Printf.printf "  target:  %s\n" (Target.describe r.Ferrite.Scenario.target);
          Printf.printf "  outcome: %s\n"
            (Ferrite_injection.Outcome.outcome_label
               record.Ferrite_injection.Outcome.r_outcome);
          (match Triage.of_record record r.Ferrite.Scenario.dump with
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
            r.Ferrite.Scenario.dump)
        scenarios
  in
  Cmd.v
    (Cmd.info "triage"
       ~doc:
         "Bucket crashes into the paper's sec. 5 root-cause families - either a \
          stored campaign (--from-store) or the Figs. 7/13/14 scenario replays")
    Term.(const run $ scenario_arg $ jobs_arg $ from_store_arg)

(* --- fuzz --- *)

let fuzz_cmd =
  let budget_arg =
    let doc = "Wall-clock budget in seconds." in
    Arg.(value & opt float 30.0 & info [ "time-budget" ] ~docv:"SECS" ~doc)
  in
  let seed_arg =
    let doc = "Base PRNG seed; each round derives its own stream from it." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)
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
      let rng =
        Ferrite_machine.Rng.create_derived ~seed:(Int64.of_int seed) ~index:!round
      in
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
    Term.(const run $ budget_arg $ seed_arg $ out_arg)

(* --- worker --- *)

let worker_cmd =
  let run io_chaos io_enospc_after =
    arm_io_chaos ~io_chaos ~io_enospc_after;
    (* stdout is the wire: nothing in the serve path may print to it *)
    Fabric.Worker.serve ~input:Unix.stdin ~output:Unix.stdout ()
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Serve one campaign as a distributed-fabric worker: speak the fabric \
          protocol over stdin/stdout until the controller says goodbye. \
          Normally spawned by 'ferrite inject --distributed', not by hand. \
          --io-chaos arms the same seeded fault layer the controller runs \
          under (exec'd workers do not inherit it, so the controller passes \
          the flag along).")
    Term.(const run $ io_chaos_arg $ io_enospc_after_arg)

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
    Printf.printf "%s: %s (%d bytes at %08x)\n" fn
      (match arch with Image.Cisc -> "P4" | Image.Risc -> "G4")
      f.Image.fs_size f.Image.fs_addr;
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
  exit (Cmd.eval (Cmd.group ~default info [ boot_cmd; profile_cmd; inject_cmd; matrix_cmd; suite_cmd; report_cmd; ablate_cmd; oops_cmd; disasm_cmd; trace_cmd; triage_cmd; fuzz_cmd; worker_cmd ]))
