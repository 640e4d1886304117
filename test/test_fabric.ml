(* Tests for the distributed campaign fabric: wire-codec roundtrips and
   torn-frame recovery, the lease-table state machine, and full controller +
   worker-fleet campaigns — plain, killed-and-rejoined, wire-chaos-drilled
   and poison-trial-quarantined — every one of which must merge byte-identical
   to a sequential run (quarantined trials excepted, and then only the way an
   in-process quarantine differs). *)

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

(* ---------- harness-fault seeds ---------- *)

let test_chaos_of_seed () =
  for i = 0 to 199 do
    let seed = Int64.of_int ((i * 7919) - 500) in
    let c, link_seed = Wire.chaos_of_seed seed in
    check_bool "drop in [0, 0.2]" true (c.Wire.wc_drop >= 0.0 && c.Wire.wc_drop <= 0.2);
    check_bool "dup in [0, 0.1]" true (c.Wire.wc_dup >= 0.0 && c.Wire.wc_dup <= 0.1);
    check_bool "reorder in [0, 0.1]" true (c.Wire.wc_reorder >= 0.0 && c.Wire.wc_reorder <= 0.1);
    check_bool "valid rates" true (Wire.validated_chaos c = c);
    check_bool "deterministic" true (Wire.chaos_of_seed seed = (c, link_seed))
  done;
  check_bool "seeds differ" true (Wire.chaos_of_seed 1L <> Wire.chaos_of_seed 2L)

(* ---------- wire codec ---------- *)

let mk_welcome i =
  {
    Wire.w_worker = i;
    w_total = 10 + i;
    w_config = small_cfg (8 + i);
    w_policy = (if i land 1 = 0 then Supervisor.default_policy else Supervisor.instant_policy);
    w_chaos =
      (if i land 2 = 0 then Supervisor.no_chaos
       else Supervisor.drill_plan ~seed:7L ~injections:16);
    w_tracer = (if i land 1 = 0 then Tracer.telemetry_only else Tracer.default_config);
    w_wire_chaos =
      (if i land 4 = 0 then None
       else Some { Wire.wc_drop = 0.125; wc_dup = 0.0625; wc_reorder = 0.0625 });
    w_wire_seed = Int64.of_int (i * 977);
  }

let mk_bye i =
  {
    Wire.by_reboots = i mod 5;
    by_cache = Cache_stats.zero;
    by_retransmitted = i mod 3;
    by_leases = i mod 7;
  }

(* Deterministic message zoo indexed by a small int — every constructor,
   including marshalled briefing/result/goodbye payloads. *)
let mk_msg i =
  match i mod 8 with
  | 0 -> Wire.Hello { h_pid = 17 * i; h_protocol = Wire.protocol_version }
  | 1 -> Wire.Welcome (mk_welcome (i mod 8))
  | 2 -> Wire.Lease_request { lr_results = i }
  | 3 -> Wire.Lease_grant { lg_lease = i; lg_lo = 3 * i; lg_hi = (3 * i) + 7; lg_results = i / 2 }
  | 4 ->
    Wire.Result
      { rs_seq = i; rs_index = i mod 11; rs_entry = mk_entry (i mod 11); rs_dump = None }
  | 5 -> Wire.Ack { ak_seq = i }
  | 6 -> Wire.Heartbeat { hb_worker = i }
  | _ -> Wire.Bye { bye_stats = (if i land 1 = 0 then None else Some (mk_bye i)) }

let prop_codec_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"encode → decode is the identity for every message" ~count:200
       QCheck.(small_list (int_range 0 80))
       (fun picks ->
         let msgs = List.map mk_msg picks in
         (* each payload decodes alone… *)
         List.for_all
           (fun m -> Wire.decode_payload (Wire.encode_payload m) = Some m)
           msgs
         (* …and a concatenated stream decodes in order, fully consumed *)
         &&
         let bytes = String.concat "" (List.map Wire.encode msgs) in
         Wire.decode_prefix bytes = (msgs, String.length bytes)))

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

(* The torn-frame property, mirroring journal recovery: however the stream is
   cut (mid-frame, mid-payload) and whatever garbage follows, decoding
   returns the longest valid prefix and never raises. *)
let prop_torn_stream =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"a torn stream decodes to its longest valid prefix" ~count:200
       QCheck.(triple (small_list (int_range 0 80)) (int_range 0 10_000) (int_range 0 48))
       (fun (picks, cut_frac, garbage) ->
         let msgs = List.map mk_msg picks in
         let frames = List.map Wire.encode msgs in
         let bytes = String.concat "" frames in
         let cut = cut_frac * String.length bytes / 10_000 in
         let torn =
           String.sub bytes 0 cut
           ^ String.init garbage (fun i -> Char.chr (i * 37 mod 256))
         in
         (* how many whole frames survive the cut — stop at the first torn
            one; later frames are unreachable even if they'd fit in [cut] *)
         let expect, consumed =
           let rec walk n off = function
             | frame :: rest when off + String.length frame <= cut ->
               walk (n + 1) (off + String.length frame) rest
             | _ -> (n, off)
           in
           walk 0 0 frames
         in
         let decoded, used = Wire.decode_prefix torn in
         (* Garbage may coincidentally restore the torn frame's missing tail
            (it is deterministic, not adversarial), so with garbage the
            decoder may legally get {e ahead} of [expect] — but only ever
            along the true message sequence. Pure truncation is exact. *)
         let n = List.length decoded in
         decoded = take n msgs && n >= expect && used >= consumed
         && (garbage > 0 || (n = expect && used = consumed))))

let test_codec_rejects_bad_crc () =
  let good = Wire.encode (Wire.Ack { ak_seq = 7 }) in
  let bad = Bytes.of_string good in
  Bytes.set bad (Bytes.length bad - 1) 'X';
  check_bool "flipped byte stops the walk" true
    (Wire.decode_prefix (Bytes.to_string bad) = ([], 0));
  let d = Wire.decoder () in
  Wire.feed d bad (Bytes.length bad);
  check_bool "live decoder raises Corrupt" true
    (match Wire.next d with
    | exception Wire.Corrupt _ -> true
    | _ -> false)

let test_codec_carries_real_dump () =
  (* a Result must carry a genuine crash dump intact: store rows are derived
     from dump fields, so dump fidelity is part of store byte-identity *)
  let r = Campaign.run (small_cfg 12) in
  match List.find_opt Option.is_some r.Campaign.dumps with
  | None -> Alcotest.fail "no crash dump in 12 stack injections (seed drift?)"
  | Some dump ->
    let msg =
      Wire.Result { rs_seq = 3; rs_index = 5; rs_entry = mk_entry 5; rs_dump = dump }
    in
    check_bool "dump survives the codec" true
      (Wire.decode_payload (Wire.encode_payload msg) = Some msg)

(* ---------- lease table ---------- *)

let test_lease_grant_and_drain () =
  let t = Lease.create ~total:7 ~chunk:3 ~max_deaths:2 in
  (match Lease.request t ~worker:0 with
  | Lease.Grant { d_lease = 0; d_lo = 0; d_hi = 3 } -> ()
  | _ -> Alcotest.fail "first grant should be [0,3)");
  (* a repeated request re-issues the live lease verbatim *)
  (match Lease.request t ~worker:0 with
  | Lease.Grant { d_lease = 0; d_lo = 0; d_hi = 3 } -> ()
  | _ -> Alcotest.fail "lost grant should be re-issued verbatim");
  for i = 0 to 2 do
    check_bool "fresh" true (Lease.complete t ~index:i = Lease.Fresh)
  done;
  check_bool "dup detected" true (Lease.complete t ~index:1 = Lease.Duplicate);
  check_bool "out of range is dup" true (Lease.complete t ~index:99 = Lease.Duplicate);
  (match Lease.request t ~worker:0 with
  | Lease.Grant { d_lo = 3; d_hi = 6; _ } -> ()
  | _ -> Alcotest.fail "second grant should be [3,6)");
  (match Lease.request t ~worker:1 with
  | Lease.Grant { d_lo = 6; d_hi = 7; _ } -> ()
  | _ -> Alcotest.fail "tail grant should be [6,7)");
  List.iter (fun i -> ignore (Lease.complete t ~index:i)) [ 3; 4; 5; 6 ];
  check_bool "finished" true (Lease.finished t);
  check_bool "drained" true (Lease.request t ~worker:1 = Lease.Drained)

(* One grant policy: a worker with no lease gets the next pending chunk, or
   [Wait], or [Drained] — nobody takes work from a live lease. *)
let test_lease_idle_worker_waits () =
  let t = Lease.create ~total:10 ~chunk:10 ~max_deaths:2 in
  (match Lease.request t ~worker:0 with
  | Lease.Grant { d_lo = 0; d_hi = 10; _ } -> ()
  | _ -> Alcotest.fail "expected the whole plan in one lease");
  check_bool "the idle worker waits" true (Lease.request t ~worker:1 = Lease.Wait);
  List.iter (fun i -> ignore (Lease.complete t ~index:i)) [ 0; 1; 2; 3 ];
  check_bool "it still waits while the holder works" true
    (Lease.request t ~worker:1 = Lease.Wait);
  check_int "the holder's leave requeues its tail" 6 (Lease.worker_leave t ~worker:0);
  (match Lease.request t ~worker:1 with
  | Lease.Grant { d_lo = 4; d_hi = 10; _ } -> ()
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
           let incomplete (_, _, lo, hi) =
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

(* Seeded wire chaos: drop/duplicate/reorder a fifth of the eligible traffic
   in both directions, over several seeds, fleet sizes and grant sizes
   (chunk 8 makes multi-trial leases, whose lost results the worker
   retransmits only once the lease is done, and leaves idle workers waiting
   on the tail). With no lease timeout, the verbatim re-grant alone must
   recover every lost message: each campaign converges with only the
   fabric's bookkeeping counters moved — records and store bytes exactly
   sequential. *)
let test_wire_chaos_converges () =
  let cfg = small_cfg 30 in
  let reference = Campaign.run cfg in
  let wire_chaos = { Wire.wc_drop = 0.2; wc_dup = 0.1; wc_reorder = 0.1 } in
  let tracks = ref 0 in
  List.iteri
    (fun k wire_seed ->
      List.iter
        (fun workers ->
          let chunk = if k mod 2 = 0 then None else Some 8 in
          let r, report = run_campaign ~workers ~wire_chaos ~wire_seed ?chunk cfg in
          let label = Printf.sprintf "chaos seed %Lx, %d workers" wire_seed workers in
          check_identical label reference r;
          check_int (label ^ ": no deaths under pure message chaos") 0
            report.fb_worker_deaths;
          tracks := !tracks + report.fb_dup_results + report.fb_retransmitted)
        [ 2; 3; 4 ])
    [ 0xC4A05L; 0x5EED1L; 0x5EED2L; 0x5EED3L ];
  check_bool "the chaos left tracks in the counters" true (!tracks > 0)

(* Fork a worker and play its controller by hand over a socketpair: answer
   its Hello with a Welcome over [trials] trials, then hand [drive] a [send]
   for frames to the worker and a [next] that returns the worker's next
   message, or [None] when [within] seconds pass without one. The worker is
   told Bye when [drive] returns. *)
let with_hand_controller ~trials drive =
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
    Unix.close ours;
    (try Worker.serve ~handle_signals:false ~input:theirs ~output:theirs ()
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
    (match next ~within:30.0 with
    | Some (Wire.Hello _) -> ()
    | _ -> Alcotest.fail "the worker did not say Hello");
    send
      [
        Wire.Welcome
          {
            Wire.w_worker = 0;
            w_total = trials;
            w_config = small_cfg trials;
            w_policy = Supervisor.default_policy;
            w_chaos = Supervisor.no_chaos;
            w_tracer = Tracer.telemetry_only;
            w_wire_chaos = None;
            w_wire_seed = 0L;
          };
      ];
    Fun.protect
      ~finally:(fun () ->
        send [ Wire.Bye { bye_stats = None } ];
        ignore (Unix.waitpid [] pid);
        Unix.close ours)
      (fun () -> drive ~send ~next)

(* A lease never expires, so when a worker's result is lost the controller
   keeps re-granting it that lease verbatim whenever it asks for work. A
   re-grant echoing a result count taken after the lease finished must make
   the worker retransmit its unacked results, or the campaign never
   finishes. This test plays the controller by hand and drops the first
   result. *)
let test_lost_messages_recovered () =
  with_hand_controller ~trials:4 (fun ~send ~next ->
      let grant lg_results = Wire.Lease_grant { lg_lease = 0; lg_lo = 0; lg_hi = 4; lg_results } in
      let ran = Array.make 4 false in
      let dropped_a_result = ref false in
      let deadline = Unix.gettimeofday () +. 30.0 in
      while not (Array.for_all Fun.id ran) do
        if Unix.gettimeofday () > deadline then Alcotest.fail "a lost result was never recovered";
        match next ~within:30.0 with
        | Some (Wire.Lease_request { lr_results }) -> send [ grant lr_results ]
        | Some (Wire.Result { rs_seq; rs_index; _ }) ->
          if not !dropped_a_result then dropped_a_result := true
          else begin
            ran.(rs_index) <- true;
            send [ Wire.Ack { ak_seq = rs_seq } ]
          end
        | Some _ -> ()
        | None -> Alcotest.fail "the worker went silent"
      done)

(* A re-grant echoes the result count of the request it answers, and that
   count alone tells news from a stale answer. The worker runs lease 0 and
   then lease 1, one trial each, and no result is acked (as if both acks
   were lost). Re-grants of lease 1 echoing the count of the request sent
   before it began must draw no retransmission; one echoing the count sent
   after it finished must draw its result again. *)
let test_stale_regrant_ignored () =
  with_hand_controller ~trials:2 (fun ~send ~next ->
      let grant lease lg_results =
        Wire.Lease_grant { lg_lease = lease; lg_lo = lease; lg_hi = lease + 1; lg_results }
      in
      let deadline = Unix.gettimeofday () +. 30.0 in
      let rec await what pick =
        match next ~within:(deadline -. Unix.gettimeofday ()) with
        | None -> Alcotest.failf "no %s" what
        | Some m -> ( match pick m with Some x -> x | None -> await what pick)
      in
      let request () =
        await "lease request" (function
          | Wire.Lease_request { lr_results } -> Some lr_results
          | _ -> None)
      in
      let result seq =
        await (Printf.sprintf "result %d" seq) (function
          | Wire.Result { rs_seq; _ } when rs_seq = seq -> Some ()
          | _ -> None)
      in
      send [ grant 0 (request ()) ];
      result 0;
      let before = request () in
      check_int "the request before lease 1 counts one result" 1 before;
      send [ grant 1 before ];
      result 1;
      (* for half a second, answer every request with the stale re-grant *)
      let stale_until = Unix.gettimeofday () +. 0.5 in
      let resent = ref 0 in
      let after = ref before in
      while Unix.gettimeofday () < stale_until do
        match next ~within:(stale_until -. Unix.gettimeofday ()) with
        | Some (Wire.Lease_request { lr_results }) ->
          after := lr_results;
          send [ grant 1 before ]
        | Some (Wire.Result _) -> incr resent
        | Some _ | None -> ()
      done;
      check_int "a stale re-grant draws no retransmission" 0 !resent;
      check_int "requests after lease 1 count two results" 2 !after;
      send [ grant 1 !after ];
      result 1)

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
           let t = Controller.create ~journal:path cfg in
           Sys.set_signal Sys.sigterm
             (Sys.Signal_handle (fun _ -> Controller.request_drain t));
           ignore (Controller.add_worker t);
           ignore (Controller.add_worker t);
           while (not (Controller.finished t)) && not (Controller.draining t) do
             Controller.step t ~timeout:0.05
           done;
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
      let sv =
        {
          Campaign.sv_policy = Supervisor.default_policy;
          sv_chaos = Supervisor.no_chaos;
          sv_journal = Some path;
          sv_resume = true;
        }
      in
      let hash =
        Journal.plan_hash_of_string (Campaign.plan_fingerprint ~supervision:sv cfg)
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
      let r, _ = run_campaign ~workers:2 ~journal:path ~resume:true cfg in
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
      let t = Controller.create ~journal:path ~chunk:10 cfg in
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
              let supervision =
                { Campaign.default_supervision with
                  Campaign.sv_journal = Some copy;
                  sv_resume = true }
              in
              let r = Campaign.run ~executor:(Executor.of_jobs jobs) ~supervision cfg in
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
      let supervision = { Campaign.default_supervision with Campaign.sv_journal = Some path } in
      ignore (Campaign.run ~supervision cfg);
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
      let r, report = run_campaign ~workers:2 ~journal:path ~resume:true cfg in
      check_resumed "fabric resume" reference r;
      check_int "only the lost trials ran" (40 - kept) report.fb_results;
      check_int "the journal is complete again" 40
        (List.length (journal_entries path cfg).Journal.rc_entries))

let () =
  Alcotest.run "ferrite_fabric"
    [
      ( "codec",
        [
          Alcotest.test_case "harness-fault link rates" `Quick test_chaos_of_seed;
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
          Alcotest.test_case "wire chaos converges" `Quick test_wire_chaos_converges;
          Alcotest.test_case "lost messages recovered on a re-grant" `Quick
            test_lost_messages_recovered;
          Alcotest.test_case "stale re-grant draws no retransmission" `Quick
            test_stale_regrant_ignored;
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
