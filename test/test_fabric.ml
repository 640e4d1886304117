(* Tests for the distributed campaign fabric: wire-codec roundtrips and
   torn-frame recovery, the lease-table state machine, and full controller +
   worker-fleet campaigns — plain, swept over fleet and lease sizes,
   killed-and-rejoined and poison-trial-quarantined — every one of which
   must merge byte-identical to a sequential run (quarantined trials
   excepted, and then only the way an in-process quarantine differs). *)

open Ferrite_injection
open Ferrite_fabric
open Fabric
module Image = Ferrite_kir.Image
module Tracer = Ferrite_trace.Tracer
module Telemetry = Ferrite_trace.Telemetry
module Cache_stats = Ferrite_machine.Cache_stats
module Store = Ferrite_store.Store

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_cfg injections =
  { (Campaign.default ~arch:Image.Cisc ~kind:Target.Stack ~injections) with
    Campaign.seed = 0x2004L }

let stamp =
  { Ferrite_trace.Event.s_cycles = 0; s_instructions = 0; s_pc = 0; s_function = None }

let mk_entry i =
  let tracer = Tracer.create Tracer.default_config in
  Tracer.record tracer stamp (Ferrite_trace.Event.Trial_begin { trial = i; target = "t" });
  {
    Journal.je_index = i;
    je_record =
      {
        Outcome.r_target = Target.Data_target { addr = 4 * i; bit = i mod 8 };
        r_outcome = (if i mod 2 = 0 then Outcome.Not_manifested else Outcome.Hang);
        r_activated = true;
        r_activation_cycle = Some (100 + i);
        r_model = Fault_model.Single_bit_transient;
      };
    je_stats =
      {
        Collector.st_received = i;
        st_lost = i mod 3;
        st_retransmitted = 0;
        st_gave_up = 0;
        st_dup_dropped = 0;
        st_by_model = (if i > 0 then [ ("single_bit", i) ] else []);
      };
    je_trace = Tracer.trial_of tracer ~index:i ~target:"t" ~outcome:"ok";
  }

(* ---------- wire codec ---------- *)

let mk_bye i = { Wire.by_reboots = i mod 5; by_cache = Cache_stats.zero }

(* Deterministic message zoo indexed by a small int — every constructor,
   including marshalled result/goodbye payloads. *)
let mk_msg i =
  match i mod 5 with
  | 0 -> Wire.Lease_request
  | 1 -> Wire.Lease_grant { lg_lo = 3 * i; lg_hi = (3 * i) + 7 }
  | 2 -> Wire.Result { rs_entry = mk_entry (i mod 11); rs_dump = None }
  | 3 -> Wire.Heartbeat
  | _ -> Wire.Bye { bye_stats = (if i land 1 = 0 then None else Some (mk_bye i)) }

(* Feed [bytes] to a live decoder in pieces of the given sizes (cycled;
   the whole stream at once when there are none), reading every complete
   message back after each piece, as a link's reader does. *)
let decode_in_pieces pieces bytes =
  let d = Wire.decoder () in
  let out = ref [] in
  let rec pump () =
    match Wire.next d with
    | Some m ->
      out := m :: !out;
      pump ()
    | None -> ()
  in
  let sizes = Array.of_list (List.map (fun p -> 1 + p) pieces) in
  let n = String.length bytes in
  let rec go off k =
    if off < n then begin
      let len = if sizes = [||] then n else min (n - off) sizes.(k mod Array.length sizes) in
      Wire.feed d (Bytes.of_string (String.sub bytes off len)) len;
      pump ();
      go (off + len) (k + 1)
    end
  in
  go 0 0;
  List.rev !out

let prop_codec_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"encode → decode is the identity for every message" ~count:200
       QCheck.(pair (small_list (int_range 0 80)) (small_list (int_range 0 96)))
       (fun (picks, pieces) ->
         let msgs = List.map mk_msg picks in
         (* each payload decodes alone… *)
         List.for_all
           (fun m -> Wire.decode_payload (Wire.encode_payload m) = Some m)
           msgs
         (* …and a concatenated stream, however it is split, decodes in order *)
         && decode_in_pieces pieces (String.concat "" (List.map Wire.encode msgs)) = msgs))

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

(* The torn-frame property: however the stream is cut (mid-frame,
   mid-payload) and however the rest arrives in pieces, the live decoder
   yields exactly the complete messages, then [None], and never raises. *)
let prop_torn_stream =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"a torn stream decodes to its longest valid prefix" ~count:200
       QCheck.(triple (small_list (int_range 0 80)) (int_range 0 10_000) (small_list (int_range 0 96)))
       (fun (picks, cut_frac, pieces) ->
         let msgs = List.map mk_msg picks in
         let frames = List.map Wire.encode msgs in
         let bytes = String.concat "" frames in
         let cut = cut_frac * String.length bytes / 10_000 in
         (* how many whole frames survive the cut *)
         let expect =
           let rec walk n off = function
             | frame :: rest when off + String.length frame <= cut ->
               walk (n + 1) (off + String.length frame) rest
             | _ -> n
           in
           walk 0 0 frames
         in
         decode_in_pieces pieces (String.sub bytes 0 cut) = take expect msgs))

let corrupt bytes =
  let d = Wire.decoder () in
  Wire.feed d (Bytes.of_string bytes) (String.length bytes);
  match Wire.next d with exception Wire.Corrupt _ -> true | _ -> false

(* A complete frame that is not a message is a peer bug, never a torn tail:
   a flipped byte (CRC mismatch), a well-framed unknown payload and an
   absurd length all raise. *)
let test_codec_rejects_bad_crc () =
  let good = Wire.encode (Wire.Lease_grant { lg_lo = 0; lg_hi = 3 }) in
  let bad = Bytes.of_string good in
  Bytes.set bad (Bytes.length bad - 1) 'X';
  check_bool "a flipped byte raises Corrupt" true (corrupt (Bytes.to_string bad));
  check_bool "a garbage frame raises Corrupt" true (corrupt (Journal.frame "Zgarbage"));
  check_bool "an absurd length raises Corrupt" true (corrupt (String.make 8 '\xff'))

let test_codec_carries_real_dump () =
  (* a Result must carry a genuine crash dump intact: store rows are derived
     from dump fields, so dump fidelity is part of store byte-identity *)
  let r = Campaign.run (small_cfg 12) in
  match List.find_opt Option.is_some r.Campaign.dumps with
  | None -> Alcotest.fail "no crash dump in 12 stack injections (seed drift?)"
  | Some dump ->
    let msg = Wire.Result { rs_entry = mk_entry 5; rs_dump = dump } in
    check_bool "dump survives the codec" true
      (Wire.decode_payload (Wire.encode_payload msg) = Some msg)

(* ---------- lease table ---------- *)

let test_lease_grant_and_drain () =
  let t = Lease.create ~total:7 ~chunk:3 ~max_deaths:2 in
  (match Lease.request t ~worker:0 with
  | Lease.Grant { d_lo = 0; d_hi = 3 } -> ()
  | _ -> Alcotest.fail "first grant should be [0,3)");
  for i = 0 to 2 do
    check_bool "fresh" true (Lease.complete t ~index:i = Lease.Fresh)
  done;
  check_bool "dup detected" true (Lease.complete t ~index:1 = Lease.Duplicate);
  check_bool "out of range is dup" true (Lease.complete t ~index:99 = Lease.Duplicate);
  (match Lease.request t ~worker:0 with
  | Lease.Grant { d_lo = 3; d_hi = 6 } -> ()
  | _ -> Alcotest.fail "second grant should be [3,6)");
  (match Lease.request t ~worker:1 with
  | Lease.Grant { d_lo = 6; d_hi = 7 } -> ()
  | _ -> Alcotest.fail "tail grant should be [6,7)");
  List.iter (fun i -> ignore (Lease.complete t ~index:i)) [ 3; 4; 5; 6 ];
  check_bool "finished" true (Lease.finished t);
  check_bool "drained" true (Lease.request t ~worker:1 = Lease.Drained)

(* One grant policy: a worker with no lease gets the next pending chunk, or
   [Wait], or [Drained] — nobody takes work from a live lease. *)
let test_lease_idle_worker_waits () =
  let t = Lease.create ~total:10 ~chunk:10 ~max_deaths:2 in
  (match Lease.request t ~worker:0 with
  | Lease.Grant { d_lo = 0; d_hi = 10 } -> ()
  | _ -> Alcotest.fail "expected the whole plan in one lease");
  check_bool "the idle worker waits" true (Lease.request t ~worker:1 = Lease.Wait);
  List.iter (fun i -> ignore (Lease.complete t ~index:i)) [ 0; 1; 2; 3 ];
  check_bool "it still waits while the holder works" true
    (Lease.request t ~worker:1 = Lease.Wait);
  check_int "the holder's leave requeues its tail" 6 (Lease.worker_leave t ~worker:0);
  (match Lease.request t ~worker:1 with
  | Lease.Grant { d_lo = 4; d_hi = 10 } -> ()
  | _ -> Alcotest.fail "the idle worker should be granted the requeued tail");
  check_int "nothing left unleased" 0 (Lease.pending_trials t);
  check_bool "now the leaver waits" true (Lease.request t ~worker:0 = Lease.Wait);
  for i = 4 to 9 do
    ignore (Lease.complete t ~index:i)
  done;
  check_bool "both drained" true
    (Lease.request t ~worker:0 = Lease.Drained && Lease.request t ~worker:1 = Lease.Drained)

let test_lease_death_poisons () =
  let t = Lease.create ~total:3 ~chunk:1 ~max_deaths:1 in
  ignore (Lease.request t ~worker:0);
  let requeued = ref [] in
  check_bool "first death only requeues" true
    (Lease.worker_dead t ~worker:0 ~requeued = []);
  check_int "trial 0 requeued" 1 (List.length !requeued);
  ignore (Lease.request t ~worker:1);
  (* chunk 1: worker 1 now holds trial 1?  No — pending is [1,3) then [0,1);
     the requeued trial goes to the back, so worker 1 leased trial 1 *)
  ignore (Lease.request t ~worker:2);
  (* worker 2 leased trial 2; next lease would be the requeued trial 0 *)
  ignore (Lease.request t ~worker:3);
  let requeued = ref [] in
  check_bool "second death poisons" true
    (Lease.worker_dead t ~worker:3 ~requeued = [ 0 ]);
  check_int "poisoned trial is not requeued" 0 (List.length !requeued);
  (* the caller quarantines and completes it *)
  check_bool "quarantine completes" true (Lease.complete t ~index:0 = Lease.Fresh);
  ignore (Lease.complete t ~index:1);
  ignore (Lease.complete t ~index:2);
  check_bool "finished" true (Lease.finished t)

(* Random request/complete/worker_dead/worker_leave schedules,
   checked against a model of which trials completed: every index is
   [Fresh] exactly once, no live lease is empty, and every trial is
   complete, leased or pending — exactly one of the three. *)
let prop_lease_accounting =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"lease accounting holds under any schedule" ~count:500
       QCheck.(
         triple (int_range 1 30) (int_range 1 8)
           (list_of_size Gen.(0 -- 150) (pair (int_range 0 3) small_nat)))
       (fun (total, chunk, ops) ->
         let t = Lease.create ~total ~chunk ~max_deaths:1 in
         let fresh = Array.make total 0 in
         let complete i =
           match Lease.complete t ~index:i with
           | Lease.Fresh -> fresh.(i) <- fresh.(i) + 1
           | Lease.Duplicate -> ()
         in
         let accounted () =
           let incomplete (_, lo, hi) =
             List.length (List.filter (fun i -> fresh.(i) = 0) (List.init (hi - lo) (( + ) lo)))
           in
           let leased = List.map incomplete (Lease.live_leases t) in
           let completed = Array.fold_left ( + ) 0 fresh in
           (not (List.mem 0 leased))
           && completed = Lease.completed t
           && completed + List.fold_left ( + ) 0 leased + Lease.pending_trials t = total
         in
         let step (op, a) =
           let worker = a mod 3 in
           (match op with
           | 0 -> ignore (Lease.request t ~worker)
           | 1 -> complete ((a mod (total + 2)) - 1)
           | 2 ->
             (* the caller quarantines and completes every poisoned trial *)
             List.iter complete (Lease.worker_dead t ~worker ~requeued:(ref []))
           | _ -> ignore (Lease.worker_leave t ~worker));
           accounted ()
         in
         List.for_all step ops
         &&
         (for i = 0 to total - 1 do
            complete i
          done;
          Array.for_all (( = ) 1) fresh
          && Lease.finished t
          && Lease.request t ~worker:0 = Lease.Drained)))

(* ---------- full campaigns ---------- *)

(* The default supervision with a journal at [path]. *)
let journalled ?(resume = false) path =
  { Campaign.default_supervision with Campaign.sv_journal = Some path; sv_resume = resume }

let boots_blind t = Telemetry.with_boots t 0

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* The store bytes a campaign result produces — tiny blocks so block framing
   is exercised too. *)
let store_bytes (r : Campaign.result) =
  let path = Filename.temp_file "ferrite_fabric" ".fstore" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let w = Store.create ~block_rows:7 path in
      Result_store.append_result w r;
      Store.close w;
      read_file path)

let check_identical label (reference : Campaign.result) (r : Campaign.result) =
  check_bool (label ^ ": records") true (r.Campaign.records = reference.Campaign.records);
  check_bool (label ^ ": collector") true
    (r.Campaign.collector = reference.Campaign.collector);
  check_bool (label ^ ": traces") true (r.Campaign.traces = reference.Campaign.traces);
  check_bool (label ^ ": dumps") true (r.Campaign.dumps = reference.Campaign.dumps);
  check_bool (label ^ ": telemetry") true
    (boots_blind r.Campaign.telemetry = boots_blind reference.Campaign.telemetry);
  check_bool (label ^ ": hot profile") true
    (r.Campaign.hot_profile = reference.Campaign.hot_profile);
  check_bool (label ^ ": store bytes") true (store_bytes r = store_bytes reference)

let test_two_workers_identical () =
  let cfg = small_cfg 24 in
  let reference = Campaign.run cfg in
  (* the controller builds the inputs once: its forked workers inherit them
     and its merge reads the hot profile from them *)
  let n0 = Campaign.inputs_built () in
  let r, report = run_campaign ~workers:2 cfg in
  check_int "one inputs build in the controller" 1 (Campaign.inputs_built () - n0);
  check_identical "2 workers" reference r;
  check_int "no deaths" 0 report.fb_worker_deaths;
  check_int "every trial merged fresh exactly once" 24 report.fb_results

(* Workers forked before the controller's first step take their copy of
   its warm spare, which a code campaign's profile left warm, so they never
   pre-warm; the first step drops the spare, and a worker forked after it
   builds its machine from the snapshot and pre-warms it. Any mix merges
   byte-identical to the sequential run. *)
let test_warm_spare_and_late_joiner () =
  let cfg = { (small_cfg 24) with Campaign.kind = Target.Code } in
  let reference = Campaign.run cfg in
  let prewarmed (r : Campaign.result) = r.Campaign.cache.Cache_stats.cs_prewarmed in
  let r, _ = run_campaign ~workers:2 cfg in
  check_identical "forked from the spare" reference r;
  check_int "the spare was warm" 0 (prewarmed r);
  let fleet ~early ~late =
    let t = Controller.create cfg in
    for _ = 1 to early do
      ignore (Controller.add_worker t)
    done;
    Controller.step t ~timeout:0.0;
    for _ = 1 to late do
      ignore (Controller.add_worker t)
    done;
    fst (Controller.finish t)
  in
  let r = fleet ~early:0 ~late:1 in
  check_identical "late joiner" reference r;
  check_bool "a late joiner pre-warms its machine" true (prewarmed r > 0);
  check_identical "one from the spare, one late" reference (fleet ~early:1 ~late:1)

(* The golden resilience drill: four workers, one SIGKILLed mid-campaign, a
   replacement joining late — the merge must not show a scar. *)
let test_kill_and_rejoin () =
  let cfg = small_cfg 80 in
  let reference = Campaign.run cfg in
  let t = Controller.create cfg in
  let first = Controller.add_worker t in
  for _ = 2 to 4 do
    ignore (Controller.add_worker t)
  done;
  (* let the campaign get going, then kill without warning *)
  let deadline = Unix.gettimeofday () +. 60.0 in
  while Controller.completed t < 4 && Unix.gettimeofday () < deadline do
    Controller.step t ~timeout:0.05
  done;
  check_bool "the campaign was mid-flight" true
    (Controller.completed t >= 4 && not (Controller.finished t));
  (match Controller.worker_pid t first with
  | Some pid -> Unix.kill pid Sys.sigkill
  | None -> Alcotest.fail "forked worker has no pid");
  let late = Controller.add_worker t in
  check_bool "replacement got a fresh id" true (late > first);
  let r, report = Controller.finish t in
  check_int "exactly one death" 1 report.fb_worker_deaths;
  check_int "nothing quarantined" 0 (List.length report.fb_quarantined);
  check_int "five workers ever joined" 5 report.fb_workers;
  check_identical "kill and rejoin" reference r

(* Fleet and grant sizes swept (chunk 8 makes multi-trial leases and
   leaves idle workers waiting on the tail): each campaign merges
   byte-identical to sequential, and with no deaths no trial runs twice. *)
let test_fleet_sweep () =
  let cfg = small_cfg 30 in
  let reference = Campaign.run cfg in
  List.iter
    (fun chunk ->
      List.iter
        (fun workers ->
          let r, report = run_campaign ~workers ?chunk cfg in
          let label =
            Printf.sprintf "%d workers, chunk %s" workers
              (Option.fold chunk ~none:"default" ~some:string_of_int)
          in
          check_identical label reference r;
          check_int (label ^ ": no deaths") 0 report.fb_worker_deaths;
          check_int (label ^ ": no duplicates") 0 report.fb_dup_results;
          check_int (label ^ ": nothing re-sent") 0 report.fb_retransmitted)
        [ 2; 3; 4 ])
    [ None; Some 8 ]

(* Fork a worker over a campaign of [trials] trials and play its controller
   by hand over a socketpair: hand [drive] a [send] for frames to the worker
   and a [next] that returns the worker's next message, or [None] when
   [within] seconds pass without one. The worker is told Bye when [drive]
   returns. *)
let with_hand_controller ~trials drive =
  let cfg = small_cfg trials in
  let inputs = Campaign.build_inputs cfg.Campaign.arch in
  let env = Campaign.environment_with inputs cfg in
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
    Unix.close ours;
    (try
       Worker.serve ~handle_signals:false ~supervisor:(Supervisor.create ())
         ~tracer:Tracer.telemetry_only ~machines:(Campaign.machines inputs) env
         (Campaign.plan cfg) theirs
     with _ -> Unix._exit 2);
    Unix._exit 0
  | pid ->
    Unix.close theirs;
    let send msgs =
      let s = String.concat "" (List.map Wire.encode msgs) in
      ignore (Unix.write_substring ours s 0 (String.length s))
    in
    let dec = Wire.decoder () in
    let buf = Bytes.create 65536 in
    let rec next ~within =
      match Wire.next dec with
      | Some m -> Some m
      | None -> (
        match Unix.select [ ours ] [] [] (Float.max 0.0 within) with
        | [], _, _ -> None
        | _ ->
          let n = Unix.read ours buf 0 (Bytes.length buf) in
          if n = 0 then Alcotest.fail "the worker hung up";
          Wire.feed dec buf n;
          next ~within)
    in
    Fun.protect
      ~finally:(fun () ->
        send [ Wire.Bye { bye_stats = None } ];
        ignore (Unix.waitpid [] pid);
        Unix.close ours)
      (fun () -> drive ~send ~next)

(* Every message the worker sends in the next [seconds], heartbeats apart. *)
let collect ~next seconds =
  let until = Unix.gettimeofday () +. seconds in
  let rec go msgs beats =
    match next ~within:(until -. Unix.gettimeofday ()) with
    | None -> (List.rev msgs, beats)
    | Some Wire.Heartbeat -> go msgs (beats + 1)
    | Some m -> go (m :: msgs) beats
  in
  go [] 0

(* An idle worker asks once and waits for the answer, heartbeating while
   it waits. This test plays the controller by hand: it leaves the first
   request open for a second, then grants one trial, and after its result
   expects exactly one further request. *)
let test_idle_worker_asks_once () =
  with_hand_controller ~trials:2 (fun ~send ~next ->
      let rec next_message () =
        match next ~within:30.0 with
        | Some Wire.Heartbeat -> next_message ()
        | Some m -> m
        | None -> Alcotest.fail "the worker fell silent"
      in
      check_bool "an idle worker asks" true (next_message () = Wire.Lease_request);
      let unanswered, beats = collect ~next 1.0 in
      check_int "no request repeated while the first is open" 0 (List.length unanswered);
      check_bool "a waiting worker heartbeats" true (beats > 0);
      send [ Wire.Lease_grant { lg_lo = 0; lg_hi = 1 } ];
      (match next_message () with
      | Wire.Result { rs_entry; _ } -> check_int "the granted trial ran" 0 rs_entry.Journal.je_index
      | _ -> Alcotest.fail "expected the granted trial's result");
      let after, _ = collect ~next 0.6 in
      check_bool "exactly one request after the lease" true (after = [ Wire.Lease_request ]))

(* A trial that kills every worker that touches it must not kill the
   campaign: after max deaths it is quarantined exactly like an in-process
   poison trial, and every other record stays byte-identical. *)
let test_poison_trial_quarantined () =
  let poison = 5 in
  let cfg = small_cfg 12 in
  let reference = Campaign.run cfg in
  let t = Controller.create ~max_worker_deaths:1 ~chunk:1 cfg in
  ignore (Controller.add_worker ~die_at:poison t);
  ignore (Controller.add_worker ~die_at:poison t);
  let deadline = Unix.gettimeofday () +. 60.0 in
  while
    (not (Controller.finished t))
    && Controller.workers_alive t > 0
    && Unix.gettimeofday () < deadline
  do
    Controller.step t ~timeout:0.05
  done;
  (* both die-at workers are dead by now; a healthy late joiner mops up
     whatever they left (usually nothing but the already-quarantined trial) *)
  if not (Controller.finished t) then ignore (Controller.add_worker t);
  let r, report = Controller.finish t in
  check_int "two deaths" 2 report.fb_worker_deaths;
  (match report.fb_quarantined with
  | [ (i, _) ] -> check_int "the poison trial was quarantined" poison i
  | q -> Alcotest.failf "expected one quarantined trial, got %d" (List.length q));
  List.iteri
    (fun i (record : Outcome.record) ->
      let ref_record = List.nth reference.Campaign.records i in
      if i = poison then
        check_bool "poison trial is an infrastructure failure" true
          (Outcome.is_infrastructure record.Outcome.r_outcome)
      else
        check_bool (Printf.sprintf "trial %d identical" i) true (record = ref_record))
    r.Campaign.records

(* A worker that is alive but silent — SIGSTOPped, the moral equivalent of a
   spin loop — must be declared hung once the heartbeat deadline passes, its
   lease reclaimed and re-granted exactly once, and the campaign must still
   merge byte-identical. *)
let test_hung_worker_declared_dead () =
  let cfg = small_cfg 40 in
  let reference = Campaign.run cfg in
  (* one worker holding the whole campaign as a single lease, so the wedge
     below is guaranteed to strand unfinished leased trials *)
  let t = Controller.create ~heartbeat_timeout:1.0 ~chunk:40 cfg in
  let first = Controller.add_worker t in
  let deadline = Unix.gettimeofday () +. 60.0 in
  while Controller.completed t < 2 && Unix.gettimeofday () < deadline do
    Controller.step t ~timeout:0.05
  done;
  let pid =
    match Controller.worker_pid t first with
    | Some pid -> pid
    | None -> Alcotest.fail "forked worker has no pid"
  in
  (* wedge it: the process stays alive but heartbeats stop *)
  Unix.kill pid Sys.sigstop;
  ignore (Controller.add_worker t);
  let deadline = Unix.gettimeofday () +. 60.0 in
  while Controller.workers_alive t > 1 && Unix.gettimeofday () < deadline do
    Controller.step t ~timeout:0.05
  done;
  (* declared dead while the process still exists (reap kills it later) *)
  check_bool "the wedged process is still alive" true
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> true
    | _ -> false
    | exception Unix.Unix_error _ -> false);
  (* the waiting worker must receive the reclaimed lease: step under the
     deadline, so a request left unanswered fails here instead of hanging *)
  while (not (Controller.finished t)) && Unix.gettimeofday () < deadline do
    Controller.step t ~timeout:0.05
  done;
  if not (Controller.finished t) then begin
    (* a stopped child would outlive the test, holding its output open *)
    Unix.kill pid Sys.sigkill;
    Alcotest.fail "the waiting worker never received the reclaimed lease"
  end;
  let r, report = Controller.finish t in
  check_int "declared hung" 1 report.fb_hung;
  check_int "a hung worker is a dead worker" 1 report.fb_worker_deaths;
  check_bool "its trials were re-leased" true (report.fb_requeued > 0);
  check_int "its lease reclaimed at the deadline" 1 report.fb_expired;
  check_int "every trial merged exactly once" 40 report.fb_results;
  check_int "no duplicates" 0 report.fb_dup_results;
  check_identical "hung worker" reference r

(* A controller that stalls past the heartbeat deadline must not declare a
   worker hung whose results and heartbeats sat unread in its link all the
   while: silence is judged only after every ready link has been read. *)
let test_controller_stall_is_not_a_hang () =
  let cfg = small_cfg 4 in
  let reference = Campaign.run cfg in
  let t = Controller.create ~heartbeat_timeout:0.3 cfg in
  ignore (Controller.add_worker t);
  let deadline = Unix.gettimeofday () +. 60.0 in
  while Controller.completed t < 1 && Unix.gettimeofday () < deadline do
    Controller.step t ~timeout:0.05
  done;
  Unix.sleepf 0.8;
  Controller.step t ~timeout:0.0;
  check_int "the talking worker is alive" 1 (Controller.workers_alive t);
  let r, report = Controller.finish t in
  check_int "no worker declared hung" 0 report.fb_hung;
  check_identical "controller stall" reference r

(* The graceful-drain golden test: SIGTERM a journalled fabric campaign
   mid-flight. The controller must exit its loop cleanly, salvage the
   completed subset, and leave a valid journal whose entries match the
   reference records — and a later --resume must finish the campaign
   byte-identical. *)
let test_sigterm_drains_to_valid_journal () =
  let cfg = small_cfg 200 in
  let reference = Campaign.run cfg in
  let path = Filename.temp_file "ferrite_drain" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      (match Unix.fork () with
      | 0 ->
        (* child: the CLI's drain loop in miniature *)
        (try
           let t = Controller.create ~supervision:(journalled path) cfg in
           Sys.set_signal Sys.sigterm
             (Sys.Signal_handle (fun _ -> Controller.request_drain t));
           ignore (Controller.add_worker t);
           ignore (Controller.add_worker t);
           let _r, rep = Controller.finish t in
           Unix._exit (if rep.fb_missing > 0 then 42 else 0)
         with _ -> Unix._exit 1)
      | pid ->
        (* wait for a few journalled frames, then ask for the drain *)
        let deadline = Unix.gettimeofday () +. 60.0 in
        let rec poll () =
          let sz =
            try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0
          in
          if sz <= Journal.header_size + 64 && Unix.gettimeofday () < deadline then begin
            Unix.sleepf 0.01;
            poll ()
          end
        in
        poll ();
        Unix.kill pid Sys.sigterm;
        let _, status = Unix.waitpid [] pid in
        check_bool "the drain exited cleanly" true
          (status = Unix.WEXITED 42 || status = Unix.WEXITED 0));
      (* the journal is a valid prefix bound to this plan, and every entry
         matches the reference record at its index *)
      let hash =
        Journal.plan_hash_of_string
          (Campaign.plan_fingerprint ~supervision:(journalled ~resume:true path) cfg)
      in
      let rc = Journal.recover ~path ~plan_hash:hash in
      check_int "no torn tail after a drain" 0 rc.Journal.rc_truncated_bytes;
      check_bool "something was salvaged" true (rc.Journal.rc_entries <> []);
      List.iter
        (fun (e : Journal.entry) ->
          check_bool
            (Printf.sprintf "salvaged entry %d matches the reference" e.Journal.je_index)
            true
            (e.Journal.je_record
            = List.nth reference.Campaign.records e.Journal.je_index))
        rc.Journal.rc_entries;
      (* and the salvage state resumes to the full campaign *)
      let r, _ =
        run_campaign ~workers:2 ~supervision:(journalled ~resume:true path) cfg
      in
      check_bool "resume completes the drained campaign: records" true
        (r.Campaign.records = reference.Campaign.records);
      check_bool "resume completes the drained campaign: collector" true
        (r.Campaign.collector = reference.Campaign.collector);
      check_bool "resume completes the drained campaign: telemetry" true
        (boots_blind r.Campaign.telemetry = boots_blind reference.Campaign.telemetry))

(* ---------- journals resume across schedulers ---------- *)

let journal_entries path cfg =
  let hash =
    Journal.plan_hash_of_string
      (Campaign.plan_fingerprint ~supervision:Campaign.default_supervision cfg)
  in
  Journal.recover ~path ~plan_hash:hash

let with_journal f =
  let path = Filename.temp_file "ferrite_resume" ".journal" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let copy_file src dst =
  let oc = open_out_bin dst in
  output_string oc (read_file src);
  close_out oc

(* A resumed campaign serves its journal's trials verbatim and runs the rest:
   everything but the dumps of journal-served trials and the boot count must
   equal an uninterrupted run. *)
let check_resumed label (reference : Campaign.result) (r : Campaign.result) =
  check_bool (label ^ ": records") true (r.Campaign.records = reference.Campaign.records);
  check_bool (label ^ ": collector") true
    (r.Campaign.collector = reference.Campaign.collector);
  check_bool (label ^ ": traces") true (r.Campaign.traces = reference.Campaign.traces);
  check_bool (label ^ ": telemetry") true
    (boots_blind r.Campaign.telemetry = boots_blind reference.Campaign.telemetry)

(* A fabric journal drained mid-campaign resumes in-process. Worker 0 dies
   before trial 3, so [3, 10) goes to the back of the queue; the drain comes
   while worker 1 is past [10, 20), so the journal holds a set with a hole,
   not a prefix, whatever the timing. *)
let test_fabric_journal_resumes_in_process () =
  let cfg = small_cfg 40 in
  let reference = Campaign.run cfg in
  with_journal (fun path ->
      let t = Controller.create ~supervision:(journalled path) ~chunk:10 cfg in
      ignore (Controller.add_worker ~die_at:3 t);
      let deadline = Unix.gettimeofday () +. 60.0 in
      while Controller.workers_alive t > 0 && Unix.gettimeofday () < deadline do
        Controller.step t ~timeout:0.05
      done;
      ignore (Controller.add_worker t);
      while Controller.completed t < 13 && Unix.gettimeofday () < deadline do
        Controller.step t ~timeout:0.05
      done;
      Controller.request_drain t;
      let _, report = Controller.finish t in
      check_bool "drained mid-campaign" true (report.fb_missing > 0);
      let indices =
        List.map (fun (e : Journal.entry) -> e.Journal.je_index)
          (journal_entries path cfg).Journal.rc_entries
      in
      check_bool "the journal is not a prefix" true
        (List.sort compare indices <> List.init (List.length indices) Fun.id);
      List.iter
        (fun jobs ->
          with_journal (fun copy ->
              copy_file path copy;
              let r =
                Campaign.run ~executor:(Executor.of_jobs jobs)
                  ~supervision:(journalled ~resume:true copy) cfg
              in
              check_resumed (Printf.sprintf "jobs %d" jobs) reference r;
              match r.Campaign.supervision with
              | Some sup ->
                check_int "every journalled trial skipped"
                  sup.Supervisor.sup_journal_entries sup.Supervisor.sup_resume_skips
              | None -> Alcotest.fail "a supervised run returned no report"))
        [ 1; 2 ])

(* An in-process journal cut at a frame boundary resumes on the fabric. *)
let test_in_process_journal_resumes_on_fabric () =
  let cfg = small_cfg 40 in
  let reference = Campaign.run cfg in
  with_journal (fun path ->
      ignore (Campaign.run ~supervision:(journalled path) cfg);
      let kept = 17 in
      let cut =
        List.fold_left
          (fun off e -> off + String.length (Journal.frame (Journal.encode_entry e)))
          Journal.header_size
          (take kept (journal_entries path cfg).Journal.rc_entries)
      in
      Unix.truncate path cut;
      let rc = journal_entries path cfg in
      check_int "the cut lands on a frame boundary" 0 rc.Journal.rc_truncated_bytes;
      check_int "the cut keeps the first frames" kept (List.length rc.Journal.rc_entries);
      let r, report =
        run_campaign ~workers:2 ~supervision:(journalled ~resume:true path) cfg
      in
      check_resumed "fabric resume" reference r;
      check_int "only the lost trials ran" (40 - kept) report.fb_results;
      check_int "the journal is complete again" 40
        (List.length (journal_entries path cfg).Journal.rc_entries))

let () =
  Alcotest.run "ferrite_fabric"
    [
      ( "codec",
        [
          prop_codec_roundtrip;
          prop_torn_stream;
          Alcotest.test_case "bad crc" `Quick test_codec_rejects_bad_crc;
          Alcotest.test_case "real dump roundtrip" `Quick test_codec_carries_real_dump;
        ] );
      ( "lease",
        [
          Alcotest.test_case "grant and drain" `Quick test_lease_grant_and_drain;
          Alcotest.test_case "idle worker waits" `Quick test_lease_idle_worker_waits;
          Alcotest.test_case "death poisons" `Quick test_lease_death_poisons;
          prop_lease_accounting;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "2 workers byte-identical" `Quick test_two_workers_identical;
          Alcotest.test_case "kill and rejoin" `Quick test_kill_and_rejoin;
          Alcotest.test_case "fleet sweep byte-identical" `Quick test_fleet_sweep;
          Alcotest.test_case "warm spare and late joiner" `Quick test_warm_spare_and_late_joiner;
          Alcotest.test_case "idle worker asks once" `Quick test_idle_worker_asks_once;
          Alcotest.test_case "poison trial quarantined" `Quick
            test_poison_trial_quarantined;
          Alcotest.test_case "hung worker declared dead" `Quick
            test_hung_worker_declared_dead;
          Alcotest.test_case "controller stall is not a hang" `Quick
            test_controller_stall_is_not_a_hang;
          Alcotest.test_case "sigterm drains to a valid journal" `Quick
            test_sigterm_drains_to_valid_journal;
        ] );
      ( "resume",
        [
          Alcotest.test_case "in-process journal resumes on the fabric" `Quick
            test_in_process_journal_resumes_on_fabric;
          (* last: its --jobs 2 leg spawns domains, after which no test may fork *)
          Alcotest.test_case "fabric journal resumes in-process" `Quick
            test_fabric_journal_resumes_in_process;
        ] );
    ]
