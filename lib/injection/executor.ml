type t =
  | Sequential
  | Parallel of { domains : int }

let default = Sequential

(* More domains than cores just multiplies per-worker machines (each worker
   past the first builds its own from the snapshot) without any parallelism
   to pay for them. *)
let of_jobs n =
  if n < 0 then
    invalid_arg (Printf.sprintf "Executor.of_jobs: %d is not a worker count" n)
  else
    let n = min n (Domain.recommended_domain_count ()) in
    if n <= 1 then Sequential else Parallel { domains = n }

let auto () = of_jobs (Domain.recommended_domain_count ())

type outcome = Trial_table.outcome

let no_progress ~done_:_ ~total:_ = ()

(* Contiguous chunks keep per-worker scheduling overhead low; chunks smaller
   than total/workers rebalance the long tail, because trial costs vary by
   two orders of magnitude between a Not-Activated run and a watchdog Hang.
   The lease table grants at this grain for the domain pool and, by
   default, for the distributed fabric, so both shard one plan the same way. *)
let chunk_size ~total ~workers = max 1 (total / (max 1 workers * 8))

let empty =
  {
    Trial_table.records = [||];
    traces = [||];
    dumps = [||];
    telemetry = Ferrite_trace.Telemetry.zero;
    reboots = 0;
    collector = Collector.zero_stats;
    cache = Ferrite_machine.Cache_stats.zero;
  }

let run ?(progress = no_progress) ?(trace = Ferrite_trace.Tracer.telemetry_only) ?supervisor
    ?journal ?(recovered = []) t ~machines env specs =
  let total = Array.length specs in
  if total = 0 then empty
  else
    (* Never spin up a worker for fewer than ~4 trials: a worker without the
       spare builds and pre-warms its own machine, which only amortises over
       a handful of trials. *)
    let workers =
      match t with
      | Sequential -> 1
      | Parallel { domains } ->
        max 1 (min domains (min (Domain.recommended_domain_count ()) (total / 4)))
    in
    let table = Trial_table.create ?journal ~chunk:(chunk_size ~total ~workers) total in
    let lock = Mutex.create () in
    (* [done_] is read inside the lock that completes the trial, so the
       callback sees 1, 2, ..., total in order (the .mli contract) *)
    let complete ?recovered entry dump =
      Mutex.protect lock (fun () ->
          match Trial_table.complete ?recovered table entry dump with
          | Lease.Fresh ->
            progress ~done_:(Lease.completed (Trial_table.lease table)) ~total;
            true
          | Lease.Duplicate -> false)
    in
    (* Journal-served trials complete before any worker starts, so they are
       never re-run: a resumed campaign reproduces an uninterrupted one byte
       for byte. *)
    List.iter
      (fun (e : Journal.entry) ->
        if complete ~recovered:true e None then
          Option.iter (fun sv -> Supervisor.note_skip sv e.Journal.je_index) supervisor)
      recovered;
    let run_one =
      match supervisor with
      | None -> Trial.run ~trace env
      | Some sv -> Supervisor.run_trial sv ~trace env
    in
    (* One in-process worker: lease a range, run it, complete each trial, ask
       again. [Wait] means nothing is left unleased, so it stops and the
       live leases' owners finish them. *)
    let work id () =
      let cache = Trial.cache_create machines in
      let rec loop () =
        match Mutex.protect lock (fun () -> Lease.request (Trial_table.lease table) ~worker:id) with
        | Lease.Grant { d_lo; d_hi; _ } ->
          for i = d_lo to d_hi - 1 do
            let je_record, je_stats, je_trace, dump = run_one cache specs.(i) in
            ignore (complete { Journal.je_index = i; je_record; je_stats; je_trace } dump)
          done;
          loop ()
        | Lease.Wait | Lease.Drained -> ()
      in
      loop ();
      let stats = (Trial.reboots cache, Trial.cache_stats cache) in
      Trial.cache_release cache;
      stats
    in
    let per_worker =
      if workers = 1 then [ work 0 () ]
      else List.map Domain.join (List.init workers (fun id -> Domain.spawn (work id)))
    in
    let reboots, cache =
      List.fold_left
        (fun (rb, cs) (r, c) -> (rb + r, Ferrite_machine.Cache_stats.merge cs c))
        (0, Ferrite_machine.Cache_stats.zero) per_worker
    in
    Trial_table.outcome table ~reboots ~cache
