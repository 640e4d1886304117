module Campaign = Ferrite_injection.Campaign
module Supervisor = Ferrite_injection.Supervisor
module Journal = Ferrite_injection.Journal
module Executor = Ferrite_injection.Executor
module Lease = Ferrite_injection.Lease
module Trial = Ferrite_injection.Trial
module Trial_table = Ferrite_injection.Trial_table
module Tracer = Ferrite_trace.Tracer
module Cache_stats = Ferrite_machine.Cache_stats
module Iofault = Ferrite_iofault.Iofault

type report = {
  fb_workers : int;
  fb_results : int;
  fb_dup_results : int;
  fb_retransmitted : int;
  fb_steals : int;
  fb_steal_returns : int;
  fb_expired : int;
  fb_worker_deaths : int;
  fb_hung : int;
  fb_requeued : int;
  fb_left : int;
  fb_missing : int;
  fb_quarantined : (int * string) list;
}

let ignore_sigpipe () =
  (* a peer can vanish between select and write; EPIPE is the signal we
     actually handle, the signal itself would kill the process *)
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* {2 Low-level I/O} *)

exception Link_dead

(* Wire descriptors go through the seeded I/O fault layer: [write_fully]
   absorbs EINTR/EAGAIN/short writes with bounded backoff, so an armed
   recoverable fault plan perturbs timing but never frame bytes. *)
let write_all io s =
  try Iofault.write_fully io s
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) -> raise Link_dead

(* [None] = EOF (or the connection reset under us — same thing). *)
let read_some io buf =
  match Iofault.read io buf 0 (Bytes.length buf) with
  | 0 -> None
  | n -> Some n
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    Some 0
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> None

let readable ?(timeout = 0.0) fds =
  match Unix.select fds [] [] timeout with
  | ready, _, _ -> ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* Every link is a reliable, ordered stream: one message is one framed
   write on the link's fault-routed descriptor. *)
let send io msg = write_all io (Wire.encode msg)

(* {2 Worker} *)

(* Workers heartbeat between trials at this cadence; the controller's
   [heartbeat_timeout] is two orders of magnitude larger, so only a worker
   that is genuinely wedged (spinning, swapped out, deadlocked) goes silent
   long enough to be declared hung. *)
let heartbeat_every = 0.25

module Worker = struct
  type state = {
    ws_fd : Unix.file_descr;  (* raw fd for select *)
    ws_in_io : Iofault.t;  (* the same fd, fault-routed for reads *)
    ws_tx : Iofault.t;  (* the same fd, fault-routed for writes *)
    ws_dec : Wire.decoder;
    ws_buf : Bytes.t;  (* the link's read buffer; [Wire.feed] copies out of it *)
    (* the current lease's next unstarted index and exclusive end; idle
       once they meet *)
    mutable ws_next : int;
    mutable ws_hi : int;
    mutable ws_controller_bye : bool;
  }

  let handle st msg =
    match msg with
    | Wire.Lease_grant { lg_lo; lg_hi } ->
      st.ws_next <- lg_lo;
      st.ws_hi <- lg_hi
    | Wire.Bye _ -> st.ws_controller_bye <- true
    | Wire.Lease_request | Wire.Result _ | Wire.Heartbeat ->
      (* the controller never sends these *)
      ()

  let drain ?(timeout = 0.0) st =
    if readable ~timeout [ st.ws_fd ] <> [] then begin
      (match read_some st.ws_in_io st.ws_buf with
      | None -> raise Link_dead
      | Some n -> Wire.feed st.ws_dec st.ws_buf n);
      let rec pump () =
        match Wire.next st.ws_dec with
        | Some m ->
          handle st m;
          pump ()
        | None -> ()
      in
      pump ()
    end

  let serve ?die_at ?(handle_signals = true) ~supervisor ~tracer ~machines env specs fd =
    ignore_sigpipe ();
    (* SIGTERM/SIGINT mean drain, not die: finish the in-flight trial and
       say Bye. A worker that must die NOW is SIGKILLed, and the
       controller's death path covers that. *)
    let stop = ref false in
    if handle_signals then begin
      let h = Sys.Signal_handle (fun _ -> stop := true) in
      (try Sys.set_signal Sys.sigterm h with Invalid_argument _ | Sys_error _ -> ());
      try Sys.set_signal Sys.sigint h with Invalid_argument _ | Sys_error _ -> ()
    end;
    let st =
      {
        ws_fd = fd;
        ws_in_io = Iofault.wrap_stream ~label:"wire-rx" fd;
        ws_tx = Iofault.wrap_stream ~label:"wire-tx" fd;
        ws_dec = Wire.decoder ();
        ws_buf = Bytes.create 65536;
        ws_next = 0;
        ws_hi = 0;
        ws_controller_bye = false;
      }
    in
    let cache = Trial.cache_create machines in
    let last_hb = ref (Unix.gettimeofday ()) in
    try
      (* ask once at the start and once when each lease runs out: the
         answer is a grant, or Bye at the campaign's end *)
      send st.ws_tx Wire.Lease_request;
      while (not st.ws_controller_bye) && not !stop do
        let now = Unix.gettimeofday () in
        if now -. !last_hb >= heartbeat_every then begin
          last_hb := now;
          send st.ws_tx Wire.Heartbeat
        end;
        drain st;
        if (not st.ws_controller_bye) && not !stop then
          if st.ws_next < st.ws_hi then begin
            let i = st.ws_next in
            (match die_at with
            | Some d when d = i ->
              (* the crash hook: vanish without a goodbye, exactly like a
                 segfaulted harness process *)
              Unix._exit 42
            | _ -> ());
            let record, stats, trace, dump =
              Supervisor.run_trial supervisor ~trace:tracer env cache specs.(i)
            in
            st.ws_next <- i + 1;
            send st.ws_tx
              (Wire.Result
                 {
                   rs_entry =
                     { Journal.je_index = i; je_record = record; je_stats = stats; je_trace = trace };
                   rs_dump = dump;
                 });
            if st.ws_next = st.ws_hi then send st.ws_tx Wire.Lease_request
          end
          else
            (* idle: wait for the answer, waking to heartbeat (a signal
               interrupts the wait too); a negative select timeout would
               block forever *)
            drain
              ~timeout:(Float.max 0.0 (!last_hb +. heartbeat_every -. Unix.gettimeofday ()))
              st
      done;
      (* every result is already on the stream ahead of this; the controller
         merges them before it reads the goodbye *)
      send st.ws_tx
        (Wire.Bye
           {
             bye_stats =
               Some { Wire.by_reboots = Trial.reboots cache; by_cache = Trial.cache_stats cache };
           })
    with Link_dead -> ()
end

(* {2 Controller} *)

module Controller = struct
  type conn = {
    c_worker : int;
    c_fd : Unix.file_descr;  (* raw fd for select *)
    c_in_io : Iofault.t;  (* the same fd, fault-routed for reads *)
    c_pid : int;
    c_tx : Iofault.t;  (* the same fd, fault-routed for writes *)
    c_dec : Wire.decoder;
    mutable c_alive : bool;
    mutable c_bye : bool;  (* said goodbye: a later EOF is not a death *)
    mutable c_waiting : bool;  (* its request drew [Wait]: answer it when work is requeued *)
    mutable c_last_heard : float;  (* when a byte last arrived: the one deadline's clock *)
    mutable c_stats : Wire.bye_stats option;
  }

  (* Everything a forked worker runs is a field here: the child inherits
     it as OCaml values, so nothing about the campaign crosses the wire. *)
  type t = {
    t_cfg : Campaign.config;
    t_env : Trial.env;  (* merge reads the hot set from it too *)
    t_machines : Trial.machines;
        (* the inputs' machines: a worker forked before the first [step]
           takes its copy of the warm spare, and [step] drops the spare,
           so a later one builds its machine from the snapshot *)
    t_specs : Trial.spec array;
    t_supervisor : Supervisor.t;
        (* never used here, so it stays fresh: each forked worker runs its
           trials through its own copy *)
    t_tracer : Tracer.config;
    t_max_deaths : int;
    t_heartbeat : float;
    t_journal : Journal.writer option;
    t_table : Trial_table.t;
    t_lease : Lease.t;  (* the table's *)
    t_buf : Bytes.t;
        (* every link's read buffer: [Wire.feed] copies out of it, so a
           read nested in a handler ([absorb_tail]) may reuse it *)
    mutable t_conns : conn list;
    mutable t_next_worker : int;
    mutable t_finishing : bool;
    mutable t_draining : bool;
    mutable t_results : int;
    mutable t_dup_results : int;
    mutable t_expired : int;
    mutable t_deaths : int;
    mutable t_hung : int;
    mutable t_requeued : int;
    mutable t_left : int;
    mutable t_quarantined : (int * string) list;
  }

  let create ?(supervision = Campaign.default_supervision) ?(tracer = Tracer.telemetry_only)
      ?chunk ?(max_worker_deaths = 2) ?(heartbeat_timeout = 30.0) cfg =
    ignore_sigpipe ();
    let specs = Campaign.plan cfg in
    let total = Array.length specs in
    if total = 0 then invalid_arg "Fabric.Controller.create: empty campaign";
    if heartbeat_timeout <= 0.0 then
      invalid_arg "Fabric.Controller.create: non-positive heartbeat_timeout";
    let chunk =
      match chunk with
      | Some c ->
        if c <= 0 then invalid_arg "Fabric.Controller.create: non-positive chunk";
        c
      | None -> Executor.chunk_size ~total ~workers:4
    in
    let inputs = Campaign.build_inputs ~variant:cfg.Campaign.variant cfg.Campaign.arch in
    let env = Campaign.environment_with inputs cfg in
    let supervisor =
      Supervisor.create ~policy:supervision.Campaign.sv_policy
        ~chaos:supervision.Campaign.sv_chaos ()
    in
    (* The table appends every merged entry as it lands, so a drained
       (SIGTERM) or degraded campaign leaves a valid journal any later run
       can resume. *)
    let writer, recovery = Campaign.open_journal supervision cfg in
    let table = Trial_table.create ?journal:writer ~max_deaths:max_worker_deaths ~chunk total in
    List.iter
      (fun e -> ignore (Trial_table.complete ~recovered:true table e None))
      recovery.Journal.rc_entries;
    {
      t_cfg = cfg;
      t_env = env;
      t_machines = Campaign.machines inputs;
      t_specs = specs;
      t_supervisor = supervisor;
      t_tracer = Tracer.validated tracer;
      t_max_deaths = max_worker_deaths;
      t_heartbeat = heartbeat_timeout;
      t_journal = writer;
      t_table = table;
      t_lease = Trial_table.lease table;
      t_buf = Bytes.create 65536;
      t_conns = [];
      t_next_worker = 0;
      t_finishing = false;
      t_draining = false;
      t_results = 0;
      t_dup_results = 0;
      t_expired = 0;
      t_deaths = 0;
      t_hung = 0;
      t_requeued = 0;
      t_left = 0;
      t_quarantined = [];
    }

  let add_worker ?die_at t =
    let parent_end, child_end = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.fork () with
    | 0 ->
      (* the child inherits every other worker's socket: close them all or a
         dead worker's EOF never reaches the controller *)
      Unix.close parent_end;
      List.iter (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ()) t.t_conns;
      (try
         Worker.serve ?die_at ~supervisor:t.t_supervisor ~tracer:t.t_tracer
           ~machines:t.t_machines t.t_env t.t_specs child_end
       with _ -> Unix._exit 2);
      Unix._exit 0
    | pid ->
      Unix.close child_end;
      let worker = t.t_next_worker in
      t.t_next_worker <- worker + 1;
      t.t_conns <-
        t.t_conns
        @ [
            {
              c_worker = worker;
              c_fd = parent_end;
              c_in_io = Iofault.wrap_stream ~label:"wire-rx" parent_end;
              c_pid = pid;
              c_tx = Iofault.wrap_stream ~label:"wire-tx" parent_end;
              c_dec = Wire.decoder ();
              c_alive = true;
              c_bye = false;
              c_waiting = false;
              c_last_heard = Unix.gettimeofday ();
              c_stats = None;
            };
          ];
      worker

  let quarantine t index =
    (* the fabric's verdict for a poison trial matches the in-process
       supervisor's: one reason per fatal attempt, so [if_attempts] agrees
       with the death count that condemned it *)
    let deaths = t.t_max_deaths + 1 in
    let reasons =
      List.init deaths (fun k ->
          Printf.sprintf "worker process died holding trial (death %d of %d)" (k + 1)
            deaths)
    in
    let record, stats, trace, dump =
      Supervisor.quarantine_entry ~trace:t.t_tracer t.t_specs.(index) reasons
    in
    ignore
      (Trial_table.complete t.t_table
         { Journal.je_index = index; je_record = record; je_stats = stats; je_trace = trace }
         dump);
    t.t_quarantined <- t.t_quarantined @ [ (index, List.nth reasons (deaths - 1)) ]

  let conn_of t worker = List.find_opt (fun c -> c.c_worker = worker) t.t_conns

  let on_death t conn =
    conn.c_alive <- false;
    (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
    if conn.c_bye then ()
    else begin
      t.t_deaths <- t.t_deaths + 1;
      let requeued = ref [] in
      let poisoned = Lease.worker_dead t.t_lease ~worker:conn.c_worker ~requeued in
      t.t_requeued <- t.t_requeued + List.length !requeued;
      List.iter (quarantine t) poisoned
    end

  (* A failed send can race an orderly goodbye: the worker may have written
     its final results and Bye and exited before our grant or Bye hit the
     (now half-closed) socket. Counting that EPIPE as a death would requeue
     trials the Bye already settled — so before judging, suppress further
     sends, absorb whatever the worker left on the wire (late results, the
     Bye itself), and only then run the death path, whose [c_bye] check now
     sees the goodbye if there was one. *)
  let rec send_to t conn msg =
    if conn.c_alive then (
      try send conn.c_tx msg
      with Link_dead ->
        conn.c_alive <- false;
        absorb_tail t conn;
        conn.c_alive <- true;
        on_death t conn)

  and absorb_tail t conn =
    let rec pump () =
      match Wire.next conn.c_dec with
      | Some m ->
        handle t conn m;
        pump ()
      | None -> ()
      | exception Wire.Corrupt _ -> ()
    in
    let rec go budget =
      if budget > 0 then
        match readable ~timeout:0.0 [ conn.c_fd ] with
        | [] -> ()
        | _ -> (
          match read_some conn.c_in_io t.t_buf with
          | None | Some 0 -> ()
          | Some n ->
            Wire.feed conn.c_dec t.t_buf n;
            go (budget - 1))
    in
    go 64;
    pump ()

  (* Answer a worker's one open request: with a grant, or by parking it
     until a leave or a death requeues trials ([step] offers again), or not
     at all once drained or finishing: [Bye] answers it then. *)
  and offer t conn =
    conn.c_waiting <- false;
    if not t.t_finishing then
      match Lease.request t.t_lease ~worker:conn.c_worker with
      | Lease.Grant { d_lo; d_hi } -> send_to t conn (Wire.Lease_grant { lg_lo = d_lo; lg_hi = d_hi })
      | Lease.Wait -> conn.c_waiting <- true
      | Lease.Drained -> ()

  and handle t conn msg =
    match msg with
    | Wire.Lease_request -> offer t conn
    | Wire.Result { rs_entry; rs_dump } -> (
      (* deduplicated by trial index, like every completion *)
      match Trial_table.complete t.t_table rs_entry rs_dump with
      | Lease.Fresh -> t.t_results <- t.t_results + 1
      | Lease.Duplicate -> t.t_dup_results <- t.t_dup_results + 1)
    | Wire.Bye { bye_stats } ->
      conn.c_bye <- true;
      (* a lease granted after the goodbye would never be requeued *)
      conn.c_waiting <- false;
      conn.c_stats <- bye_stats;
      if not t.t_finishing then begin
        t.t_left <- t.t_left + 1;
        ignore (Lease.worker_leave t.t_lease ~worker:conn.c_worker)
      end
    | Wire.Heartbeat (* liveness only: any byte read resets [c_last_heard] *)
    | Wire.Lease_grant _ (* workers never send these *) ->
      ()

  let alive_conns t = List.filter (fun c -> c.c_alive) t.t_conns

  (* A worker silent past the heartbeat deadline is {e hung}: the process
     may well be alive (spinning, deadlocked, stopped), but it is not doing
     campaign work, so its leases must move. Treat it exactly like a death —
     [on_death] reclaims leases exactly once ([c_alive] guards re-entry) and
     closing our end of the socket makes the worker's next send EPIPE, so a
     worker that un-wedges later exits instead of double-reporting. This is
     the fabric's only deadline: a lease lives until its owner finishes,
     leaves or is declared dead here. *)
  let expire_hung t ~now =
    List.iter
      (fun c ->
        if c.c_alive && (not c.c_bye) && now -. c.c_last_heard > t.t_heartbeat then begin
          let held =
            List.filter (fun (w, _, _) -> w = c.c_worker) (Lease.live_leases t.t_lease)
          in
          t.t_hung <- t.t_hung + 1;
          t.t_expired <- t.t_expired + List.length held;
          on_death t c
        end)
      t.t_conns

  (* Silence is judged after every ready link has been read, against the
     time taken before the wait: anything a worker sent by then is in its
     link and counts, so a controller that stalls past the deadline does not
     declare a talking worker hung. Deaths, leaves and hung-worker expiries
     all requeue here, so the turn ends by offering work to every parked
     worker. The turn starts by dropping the spare, which only workers
     forked before the first turn take. *)
  let step t ~timeout =
    Trial.drop_spare t.t_machines;
    let now = Unix.gettimeofday () in
    let conns = alive_conns t in
    if conns = [] then (if timeout > 0.0 then ignore (readable ~timeout []))
    else begin
      let fds = List.map (fun c -> c.c_fd) conns in
      let ready = readable ~timeout fds in
      List.iter
        (fun c ->
          if List.memq c.c_fd ready then
            match read_some c.c_in_io t.t_buf with
            | None -> on_death t c
            | Some n -> (
              if n > 0 then c.c_last_heard <- now;
              Wire.feed c.c_dec t.t_buf n;
              try
                let rec pump () =
                  match Wire.next c.c_dec with
                  | Some m ->
                    handle t c m;
                    pump ()
                  | None -> ()
                in
                pump ()
              with Wire.Corrupt _ -> on_death t c))
        conns;
      expire_hung t ~now;
      List.iter (fun c -> if c.c_alive && c.c_waiting then offer t c) t.t_conns
    end

  let finished t = Lease.finished t.t_lease
  let completed t = Lease.completed t.t_lease
  let workers_alive t = List.length (alive_conns t)

  let worker_pid t worker = Option.map (fun c -> c.c_pid) (conn_of t worker)

  let reap t =
    List.iter
      (fun c ->
        let deadline = Unix.gettimeofday () +. 2.0 in
        let rec wait () =
          match Unix.waitpid [ Unix.WNOHANG ] c.c_pid with
          | 0, _ ->
            if Unix.gettimeofday () > deadline then begin
              (try Unix.kill c.c_pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (Unix.waitpid [] c.c_pid)
            end
            else begin
              ignore (readable ~timeout:0.01 []);
              wait ()
            end
          | _ -> ()
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
        in
        wait ())
      t.t_conns

  (* Workers report their diagnostics in their goodbye; the table folds the
     merged trials — the salvage subset after a drain. *)
  let merge t =
    let reboots, cache =
      List.fold_left
        (fun (rb, cs) c ->
          match c.c_stats with
          | Some s -> (rb + s.Wire.by_reboots, Cache_stats.merge cs s.Wire.by_cache)
          | None -> (rb, cs))
        (0, Cache_stats.zero) t.t_conns
    in
    Campaign.of_outcome t.t_cfg ~hot:t.t_env.Trial.env_hot
      (Trial_table.outcome t.t_table ~reboots ~cache)

  let report t =
    {
      fb_workers = t.t_next_worker;
      fb_results = t.t_results;
      fb_dup_results = t.t_dup_results;
      fb_retransmitted = 0;
      fb_steals = 0;
      fb_steal_returns = 0;
      fb_expired = t.t_expired;
      fb_worker_deaths = t.t_deaths;
      fb_hung = t.t_hung;
      fb_requeued = t.t_requeued;
      fb_left = t.t_left;
      fb_missing = Trial_table.missing t.t_table;
      fb_quarantined = t.t_quarantined;
    }

  (* SIGTERM/SIGINT entry point: stop waiting for completion and salvage.
     Safe to call from a signal handler — it only flips a flag that
     [finish]'s loop reads. *)
  let request_drain t = t.t_draining <- true

  let finish ?(progress = fun ~done_:_ ~total:_ -> ()) t =
    let total = Array.length t.t_specs in
    let last = ref (-1) in
    while (not (finished t)) && not t.t_draining do
      if workers_alive t = 0 then
        failwith
          (Printf.sprintf "fabric: %d trials remain and every worker is gone"
             (total - completed t));
      step t ~timeout:0.05;
      let done_ = completed t in
      if done_ <> !last then begin
        last := done_;
        progress ~done_ ~total
      end
    done;
    t.t_finishing <- true;
    List.iter (fun c -> send_to t c (Wire.Bye { bye_stats = None })) (alive_conns t);
    (* the straggler window doubles as the drain window: workers finish the
       in-flight trial, send its result (merged and journaled here), then
       answer Bye *)
    let deadline = Unix.gettimeofday () +. 2.0 in
    while
      List.exists (fun c -> c.c_alive && not c.c_bye) t.t_conns
      && Unix.gettimeofday () < deadline
    do
      step t ~timeout:0.05
    done;
    List.iter
      (fun c ->
        if c.c_alive then begin
          c.c_alive <- false;
          try Unix.close c.c_fd with Unix.Unix_error _ -> ()
        end)
      t.t_conns;
    reap t;
    Option.iter Journal.close t.t_journal;
    if Trial_table.missing t.t_table > 0 then Iofault.note_salvage "drain";
    (merge t, report t)
end

let run_campaign ?(workers = 2) ?supervision ?tracer ?chunk ?max_worker_deaths
    ?heartbeat_timeout cfg =
  let chunk =
    match chunk with
    | Some _ -> chunk
    | None ->
      Some (Executor.chunk_size ~total:cfg.Campaign.injections ~workers:(max 1 workers))
  in
  let t =
    Controller.create ?supervision ?tracer ?chunk ?max_worker_deaths ?heartbeat_timeout cfg
  in
  for _ = 1 to max 1 workers do
    ignore (Controller.add_worker t)
  done;
  Controller.finish t
