module Campaign = Ferrite_injection.Campaign
module Supervisor = Ferrite_injection.Supervisor
module Journal = Ferrite_injection.Journal
module Executor = Ferrite_injection.Executor
module Lease = Ferrite_injection.Lease
module Trial = Ferrite_injection.Trial
module Trial_table = Ferrite_injection.Trial_table
module Tracer = Ferrite_trace.Tracer
module Rng = Ferrite_machine.Rng
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

(* {2 Chaos link}

   The sending half of one direction of one connection. All chaos is applied
   here, on the sender, from a seeded stream: a campaign's full loss schedule
   is a pure function of (wire seed, link id, message ordinal), so chaos
   drills replay. *)

module Link = struct
  type t = {
    lk_io : Iofault.t;
    lk_chaos : Wire.wire_chaos option;
    lk_rng : Rng.t;
    mutable lk_holdback : Wire.msg option;  (* one message awaiting reorder *)
    mutable lk_dropped : int;
    mutable lk_duped : int;
    mutable lk_reordered : int;
  }

  let create ?chaos ~seed fd =
    {
      lk_io = Iofault.wrap_stream ~label:"wire-tx" fd;
      lk_chaos = Option.map Wire.validated_chaos chaos;
      lk_rng = Rng.create ~seed;
      lk_holdback = None;
      lk_dropped = 0;
      lk_duped = 0;
      lk_reordered = 0;
    }

  let transmit t msg = write_all t.lk_io (Wire.encode msg)

  let flush_holdback t =
    match t.lk_holdback with
    | None -> ()
    | Some m ->
      t.lk_holdback <- None;
      transmit t m

  let send t msg =
    match t.lk_chaos with
    | Some c when Wire.chaos_eligible msg ->
      let u = Rng.float t.lk_rng in
      if u < c.Wire.wc_drop then t.lk_dropped <- t.lk_dropped + 1
      else if u < c.Wire.wc_drop +. c.Wire.wc_dup then begin
        transmit t msg;
        transmit t msg;
        t.lk_duped <- t.lk_duped + 1
      end
      else if
        u < c.Wire.wc_drop +. c.Wire.wc_dup +. c.Wire.wc_reorder
        && t.lk_holdback = None
      then begin
        (* held until the next eligible send goes out first *)
        t.lk_holdback <- Some msg;
        t.lk_reordered <- t.lk_reordered + 1
      end
      else begin
        transmit t msg;
        flush_holdback t
      end
    | _ ->
      (* protocol-critical messages: deliver, and release anything held so
         reordering never strands a message behind a quiet link *)
      flush_holdback t;
      transmit t msg
end

(* Link ids salt the chaos streams so the two directions of one connection,
   and every connection, draw independently. *)
let link_seed ~wire_seed ~link_id = Rng.derive ~seed:wire_seed ~index:link_id

(* {2 Worker} *)

(* Workers heartbeat between trials at this cadence; the controller's
   [heartbeat_timeout] is two orders of magnitude larger, so only a worker
   that is genuinely wedged (spinning, swapped out, deadlocked) goes silent
   long enough to be declared hung. *)
let heartbeat_every = 0.25

module Worker = struct
  type state = {
    ws_link : Link.t;
    ws_input : Unix.file_descr;  (* raw fd for select *)
    ws_in_io : Iofault.t;  (* the same fd, fault-routed for reads *)
    ws_dec : Wire.decoder;
    ws_worker : int;
    (* current lease: id, next unstarted index, exclusive end *)
    mutable ws_cur : (int * int ref * int) option;
    ws_seen : (int, int) Hashtbl.t;
        (* lease ids already accepted -> [ws_seq] when this worker finished
           them ([max_int] until then) *)
    ws_unacked : (int, Wire.msg) Hashtbl.t;  (* seq -> Result awaiting ack *)
    mutable ws_seq : int;  (* results sent so far: the next result's seq *)
    mutable ws_leases_done : int;
    mutable ws_retransmitted : int;
    mutable ws_controller_bye : bool;
  }

  let retransmit ?(below = max_int) st =
    let pending =
      Hashtbl.fold (fun seq m acc -> if seq < below then (seq, m) :: acc else acc) st.ws_unacked []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    List.iter
      (fun (_, m) ->
        st.ws_retransmitted <- st.ws_retransmitted + 1;
        Link.send st.ws_link m)
      pending

  let handle st msg =
    match msg with
    | Wire.Ack { ak_seq } -> Hashtbl.remove st.ws_unacked ak_seq
    | Wire.Lease_grant { lg_lease; lg_lo; lg_hi; lg_results } -> (
      match Hashtbl.find_opt st.ws_seen lg_lease with
      | None ->
        Hashtbl.replace st.ws_seen lg_lease max_int;
        st.ws_cur <- Some (lg_lease, ref lg_lo, lg_hi)
      | Some finished_at when st.ws_cur = None && lg_results >= finished_at ->
        (* the answer to a request sent after we finished the lease, and the
           controller still counts it live: a result of it was lost *)
        retransmit ~below:lg_results st
      | Some _ ->
        (* stale: it answers a request sent before the lease began, or it
           reached us busy with a lease *)
        ())
    | Wire.Bye _ -> st.ws_controller_bye <- true
    | Wire.Hello _ | Wire.Welcome _ | Wire.Lease_request _ | Wire.Result _ | Wire.Heartbeat _ ->
      (* controller never sends these; a confused frame is ignored, the
         protocol is built on retransmission anyway *)
      ()

  let drain ?(timeout = 0.0) st =
    match readable ~timeout [ st.ws_input ] with
    | [] -> false
    | _ :: _ ->
      let buf = Bytes.create 65536 in
      (match read_some st.ws_in_io buf with
      | None -> raise Link_dead
      | Some n -> Wire.feed st.ws_dec buf n);
      let rec pump () =
        match Wire.next st.ws_dec with
        | Some m ->
          handle st m;
          pump ()
        | None -> ()
      in
      pump ();
      true

  let stats_of st ~cache =
    {
      Wire.by_reboots = Trial.reboots cache;
      by_cache = Trial.cache_stats cache;
      by_retransmitted = st.ws_retransmitted;
      by_leases = st.ws_leases_done;
    }

  (* Orderly leave: try hard to land every unacked result first — anything
     still unacked when we go is re-run by someone else, correctly but
     wastefully. *)
  let flush_and_leave st ~cache =
    let rounds = ref 0 in
    while Hashtbl.length st.ws_unacked > 0 && (not st.ws_controller_bye) && !rounds < 500 do
      incr rounds;
      retransmit st;
      ignore (drain ~timeout:0.02 st)
    done;
    Link.send st.ws_link (Wire.Bye { bye_stats = Some (stats_of st ~cache) })

  let wait_welcome dec in_io =
    let buf = Bytes.create 65536 in
    let rec go () =
      match Wire.next dec with
      | Some (Wire.Welcome w) -> w
      | Some _ -> go ()
      | None -> (
        match read_some in_io buf with
        | None -> failwith "fabric worker: controller hung up before Welcome"
        | Some n ->
          Wire.feed dec buf n;
          go ())
    in
    go ()

  let serve ?die_at ?max_leases ?(handle_signals = true) ?inputs ~input ~output () =
    ignore_sigpipe ();
    (* SIGTERM/SIGINT mean drain, not die: finish the in-flight trial,
       flush unacked results, say Bye. A worker that must die NOW is
       SIGKILLed, and the controller's death path covers that. *)
    let stop = ref false in
    if handle_signals then begin
      let h = Sys.Signal_handle (fun _ -> stop := true) in
      (try Sys.set_signal Sys.sigterm h with Invalid_argument _ | Sys_error _ -> ());
      try Sys.set_signal Sys.sigint h with Invalid_argument _ | Sys_error _ -> ()
    end;
    let in_io = Iofault.wrap_stream ~label:"wire-rx" input in
    write_all
      (Iofault.wrap_stream ~label:"wire-tx-hello" output)
      (Wire.encode
         (Wire.Hello { h_pid = Unix.getpid (); h_protocol = Wire.protocol_version }));
    let dec = Wire.decoder () in
    let w = wait_welcome dec in_io in
    let link =
      Link.create ?chaos:w.Wire.w_wire_chaos
        ~seed:(link_seed ~wire_seed:w.Wire.w_wire_seed ~link_id:w.Wire.w_worker)
        output
    in
    let st =
      {
        ws_link = link;
        ws_input = input;
        ws_in_io = in_io;
        ws_dec = dec;
        ws_worker = w.Wire.w_worker;
        ws_cur = None;
        ws_seen = Hashtbl.create 16;
        ws_unacked = Hashtbl.create 16;
        ws_seq = 0;
        ws_leases_done = 0;
        ws_retransmitted = 0;
        ws_controller_bye = false;
      }
    in
    (* specs close over workload code and never travel, so the plan is
       rebuilt locally from the wire config; so are the inputs, unless a
       forked worker inherited the controller's *)
    let env =
      match inputs with
      | Some i -> Campaign.environment_with i w.Wire.w_config
      | None -> Campaign.environment w.Wire.w_config
    in
    let specs = Campaign.plan w.Wire.w_config in
    let sv = Supervisor.create ~policy:w.Wire.w_policy ~chaos:w.Wire.w_chaos () in
    let cache = Trial.cache_create () in
    let leaving = ref false in
    let last_hb = ref (Unix.gettimeofday ()) in
    (try
       while (not st.ws_controller_bye) && not !stop do
         let now = Unix.gettimeofday () in
         if now -. !last_hb >= heartbeat_every then begin
           last_hb := now;
           Link.send st.ws_link (Wire.Heartbeat { hb_worker = st.ws_worker })
         end;
         ignore (drain st);
         if (not st.ws_controller_bye) && not !stop then begin
           match st.ws_cur with
           | Some (lease, next, hi) when !next < hi ->
             let i = !next in
             (match die_at with
             | Some d when d = i ->
               (* the crash hook: vanish without a goodbye, exactly like a
                  segfaulted harness process *)
               Unix._exit 42
             | _ -> ());
             let record, stats, trace, dump =
               Supervisor.run_trial sv ~trace:w.Wire.w_tracer env cache specs.(i)
             in
             incr next;
             let seq = st.ws_seq in
             st.ws_seq <- seq + 1;
             let msg =
               Wire.Result
                 {
                   rs_seq = seq;
                   rs_index = i;
                   rs_entry =
                     {
                       Journal.je_index = i;
                       je_record = record;
                       je_stats = stats;
                       je_trace = trace;
                     };
                   rs_dump = dump;
                 }
             in
             Hashtbl.replace st.ws_unacked seq msg;
             Link.send st.ws_link msg;
             if !next >= hi then begin
               st.ws_cur <- None;
               Hashtbl.replace st.ws_seen lease st.ws_seq;
               st.ws_leases_done <- st.ws_leases_done + 1;
               match max_leases with
               | Some n when st.ws_leases_done >= n -> leaving := true
               | _ -> ()
             end
           | _ ->
             st.ws_cur <- None;
             if !leaving then begin
               flush_and_leave st ~cache;
               raise Exit
             end;
             Link.send st.ws_link (Wire.Lease_request { lr_results = st.ws_seq });
             ignore (drain ~timeout:0.03 st)
         end
       done;
       if !stop && not st.ws_controller_bye then
         (* signalled: the controller has not merged everything — land our
            unacked results before leaving or they are re-run elsewhere *)
         flush_and_leave st ~cache
       else
         (* controller said Bye: every trial is merged, so anything unacked
            here was a duplicate — just answer with our diagnostics *)
         Link.send st.ws_link (Wire.Bye { bye_stats = Some (stats_of st ~cache) })
     with
    | Exit -> ()
    | Link_dead -> ())
end

(* {2 Controller} *)

module Controller = struct
  type conn = {
    c_worker : int;
    c_fd : Unix.file_descr;  (* raw fd for select *)
    c_in_io : Iofault.t;  (* the same fd, fault-routed for reads *)
    mutable c_pid : int option;
    c_link : Link.t;
    c_dec : Wire.decoder;
    mutable c_alive : bool;
    mutable c_bye : bool;  (* said goodbye: a later EOF is not a death *)
    mutable c_last_heard : float;  (* when a byte last arrived: the one deadline's clock *)
    mutable c_stats : Wire.bye_stats option;
  }

  type t = {
    t_cfg : Campaign.config;
    t_inputs : Campaign.inputs;  (* forked workers inherit them; merge reads the hot set *)
    t_specs : Trial.spec array;
    t_policy : Supervisor.policy;
    t_chaos : Supervisor.chaos;
    t_tracer : Tracer.config;
    t_wire_chaos : Wire.wire_chaos option;
    t_wire_seed : int64;
    t_max_deaths : int;
    t_heartbeat : float;
    t_journal : Journal.writer option;
    t_table : Trial_table.t;
    t_lease : Lease.t;  (* the table's *)
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

  let create ?(policy = Supervisor.default_policy) ?(chaos = Supervisor.no_chaos)
      ?(tracer = Tracer.telemetry_only) ?wire_chaos ?(wire_seed = 0xFAB71CL) ?chunk
      ?(max_worker_deaths = 2) ?(heartbeat_timeout = 30.0) ?journal ?(resume = false) cfg =
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
    (* The table appends every merged entry as it lands, so a drained
       (SIGTERM) or degraded campaign leaves a valid journal any later run
       can resume. *)
    let writer, recovery =
      Campaign.open_journal
        { Campaign.sv_policy = policy; sv_chaos = chaos; sv_journal = journal; sv_resume = resume }
        cfg
    in
    let table = Trial_table.create ?journal:writer ~max_deaths:max_worker_deaths ~chunk total in
    List.iter
      (fun e -> ignore (Trial_table.complete ~recovered:true table e None))
      recovery.Journal.rc_entries;
    {
      t_cfg = cfg;
      t_inputs = inputs;
      t_specs = specs;
      t_policy = Supervisor.validated_policy policy;
      t_chaos = chaos;
      t_tracer = Tracer.validated tracer;
      t_wire_chaos = Option.map Wire.validated_chaos wire_chaos;
      t_wire_seed = wire_seed;
      t_max_deaths = max_worker_deaths;
      t_heartbeat = heartbeat_timeout;
      t_journal = writer;
      t_table = table;
      t_lease = Trial_table.lease table;
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

  let welcome t ~worker =
    Wire.Welcome
      {
        Wire.w_worker = worker;
        w_total = Array.length t.t_specs;
        w_config = t.t_cfg;
        w_policy = t.t_policy;
        w_chaos = t.t_chaos;
        w_tracer = t.t_tracer;
        w_wire_chaos = t.t_wire_chaos;
        w_wire_seed = t.t_wire_seed;
      }

  (* Controller→worker chaos streams are salted away from the worker→
     controller ones: link id = worker for the worker's sender, worker +
     big offset for ours. *)
  let controller_link_salt = 0x10000

  let register t ~fd ~pid =
    let worker = t.t_next_worker in
    t.t_next_worker <- worker + 1;
    let link =
      Link.create ?chaos:t.t_wire_chaos
        ~seed:(link_seed ~wire_seed:t.t_wire_seed ~link_id:(controller_link_salt + worker))
        fd
    in
    let conn =
      {
        c_worker = worker;
        c_fd = fd;
        c_in_io = Iofault.wrap_stream ~label:"wire-rx" fd;
        c_pid = pid;
        c_link = link;
        c_dec = Wire.decoder ();
        c_alive = true;
        c_bye = false;
        c_last_heard = Unix.gettimeofday ();
        c_stats = None;
      }
    in
    t.t_conns <- t.t_conns @ [ conn ];
    (try Link.send link (welcome t ~worker) with Link_dead -> conn.c_alive <- false);
    worker

  let add_worker ?die_at ?max_leases t =
    let parent_end, child_end = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.fork () with
    | 0 ->
      (* the child inherits every other worker's socket: close them all or a
         dead worker's EOF never reaches the controller *)
      Unix.close parent_end;
      List.iter (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ()) t.t_conns;
      (try
         Worker.serve ?die_at ?max_leases ~inputs:t.t_inputs ~input:child_end
           ~output:child_end ()
       with _ -> Unix._exit 2);
      Unix._exit 0
    | pid ->
      Unix.close child_end;
      register t ~fd:parent_end ~pid:(Some pid)

  let add_exec_worker t ~prog ~args =
    let parent_end, child_end = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let pid = Unix.create_process prog args child_end child_end Unix.stderr in
    Unix.close child_end;
    register t ~fd:parent_end ~pid:(Some pid)

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
     its final results and Bye and exited before our Ack hit the (now
     half-closed) socket. Counting that EPIPE as a death would requeue
     trials the Bye already settled — so before judging, suppress further
     sends, absorb whatever the worker left on the wire (late results, the
     Bye itself), and only then run the death path, whose [c_bye] check now
     sees the goodbye if there was one. *)
  let rec send_to t conn msg =
    if conn.c_alive then (
      try Link.send conn.c_link msg
      with Link_dead ->
        conn.c_alive <- false;
        absorb_tail t conn;
        conn.c_alive <- true;
        on_death t conn)

  and absorb_tail t conn =
    let buf = Bytes.create 65536 in
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
          match read_some conn.c_in_io buf with
          | None | Some 0 -> ()
          | Some n ->
            Wire.feed conn.c_dec buf n;
            go (budget - 1))
    in
    go 64;
    pump ()

  and handle t conn msg =
    match msg with
    | Wire.Hello { h_pid; h_protocol } ->
      if h_protocol <> Wire.protocol_version then
        raise (Wire.Corrupt (Printf.sprintf "worker speaks protocol %d" h_protocol));
      if conn.c_pid = None then conn.c_pid <- Some h_pid
    | Wire.Lease_request { lr_results } -> (
      match Lease.request t.t_lease ~worker:conn.c_worker with
      | Lease.Grant { d_lease; d_lo; d_hi } ->
        send_to t conn
          (Wire.Lease_grant
             { lg_lease = d_lease; lg_lo = d_lo; lg_hi = d_hi; lg_results = lr_results })
      | Lease.Wait | Lease.Drained -> ())
    | Wire.Result { rs_seq; rs_index; rs_entry; rs_dump } ->
      (* always ack — the worker retransmits until we do, and dedup is ours *)
      send_to t conn (Wire.Ack { ak_seq = rs_seq });
      if rs_entry.Journal.je_index = rs_index then (
        match Trial_table.complete t.t_table rs_entry rs_dump with
        | Lease.Fresh -> t.t_results <- t.t_results + 1
        | Lease.Duplicate -> t.t_dup_results <- t.t_dup_results + 1)
    | Wire.Bye { bye_stats } ->
      conn.c_bye <- true;
      conn.c_stats <- bye_stats;
      if not t.t_finishing then begin
        t.t_left <- t.t_left + 1;
        ignore (Lease.worker_leave t.t_lease ~worker:conn.c_worker)
      end
    | Wire.Heartbeat _ (* liveness only: any byte read resets [c_last_heard] *)
    | Wire.Welcome _ | Wire.Lease_grant _ | Wire.Ack _ ->
      (* workers never send these *)
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
            List.filter (fun (_, w, _, _) -> w = c.c_worker) (Lease.live_leases t.t_lease)
          in
          t.t_hung <- t.t_hung + 1;
          t.t_expired <- t.t_expired + List.length held;
          on_death t c
        end)
      t.t_conns

  (* Silence is judged after every ready link has been read, against the
     time taken before the wait: anything a worker sent by then is in its
     link and counts, so a controller that stalls past the deadline does not
     declare a talking worker hung. *)
  let step t ~timeout =
    let now = Unix.gettimeofday () in
    let conns = alive_conns t in
    if conns = [] then (if timeout > 0.0 then ignore (readable ~timeout []))
    else begin
      let fds = List.map (fun c -> c.c_fd) conns in
      let ready = readable ~timeout fds in
      let buf = Bytes.create 65536 in
      List.iter
        (fun c ->
          if List.memq c.c_fd ready then
            match read_some c.c_in_io buf with
            | None -> on_death t c
            | Some n -> (
              if n > 0 then c.c_last_heard <- now;
              Wire.feed c.c_dec buf n;
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
      expire_hung t ~now
    end

  let finished t = Lease.finished t.t_lease
  let completed t = Lease.completed t.t_lease
  let workers_alive t = List.length (alive_conns t)

  let worker_pid t worker =
    Option.bind (conn_of t worker) (fun c -> c.c_pid)

  let reap t =
    List.iter
      (fun c ->
        match c.c_pid with
        | None -> ()
        | Some pid ->
          let deadline = Unix.gettimeofday () +. 2.0 in
          let rec wait () =
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ ->
              if Unix.gettimeofday () > deadline then begin
                (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                ignore (Unix.waitpid [] pid)
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
    Campaign.of_outcome t.t_cfg ~hot:t.t_inputs.Campaign.in_hot
      (Trial_table.outcome t.t_table ~reboots ~cache)

  let report t =
    let retransmitted =
      List.fold_left
        (fun acc c ->
          match c.c_stats with Some s -> acc + s.Wire.by_retransmitted | None -> acc)
        0 t.t_conns
    in
    {
      fb_workers = t.t_next_worker;
      fb_results = t.t_results;
      fb_dup_results = t.t_dup_results;
      fb_retransmitted = retransmitted;
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
  let draining t = t.t_draining

  let finish t =
    while (not (finished t)) && not t.t_draining do
      if workers_alive t = 0 then
        failwith
          (Printf.sprintf "fabric: %d trials remain and every worker is gone"
             (Array.length t.t_specs - Lease.completed t.t_lease));
      step t ~timeout:0.05
    done;
    t.t_finishing <- true;
    List.iter (fun c -> send_to t c (Wire.Bye { bye_stats = None })) (alive_conns t);
    (* the straggler window doubles as the drain window: workers finish the
       in-flight trial, flush unacked results (merged and journaled here),
       then answer Bye *)
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

let run_campaign ?(workers = 2) ?policy ?chaos ?tracer ?wire_chaos ?wire_seed ?chunk
    ?max_worker_deaths ?heartbeat_timeout ?journal ?resume cfg =
  let chunk =
    match chunk with
    | Some _ -> chunk
    | None ->
      Some (Executor.chunk_size ~total:cfg.Campaign.injections ~workers:(max 1 workers))
  in
  let t =
    Controller.create ?policy ?chaos ?tracer ?wire_chaos ?wire_seed ?chunk ?max_worker_deaths
      ?heartbeat_timeout ?journal ?resume cfg
  in
  for _ = 1 to max 1 workers do
    ignore (Controller.add_worker t)
  done;
  Controller.finish t
