(* Seeded deterministic I/O fault layer. See iofault.mli for the contract.

   The RNG is a self-contained copy of lib/machine/rng.ml's SplitMix64
   (same golden gamma, same finalizer) so this library depends on nothing
   but unix: the per-handle fault stream for (seed, label, instance) is
   identical in every process that arms the same seed, which is what makes
   a distributed-campaign failure replayable from the seed alone. *)

(* ------------------------------------------------------------------ *)
(* SplitMix64, mirrored from Rng                                       *)
(* ------------------------------------------------------------------ *)

let golden_gamma = 0x9E3779B97F4A7C15L

let finalize z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let derive ~seed ~index =
  finalize (Int64.add seed (Int64.mul golden_gamma (Int64.of_int (index + 1))))

(* 53-bit uniform float in [0, 1), as Rng.float does it. *)
let float_of_bits bits =
  let mant = Int64.to_float (Int64.shift_right_logical bits 11) in
  mant *. (1.0 /. 9007199254740992.0)

let fnv64 s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

type plan = {
  pl_eintr : float;
  pl_eagain : float;
  pl_short_write : float;
  pl_short_read : float;
  pl_eio : float;
  pl_fsync_fail : float;
  pl_delay : float;
  pl_delay_s : float;
  pl_enospc_after : int option;
}

let recoverable_plan =
  {
    pl_eintr = 0.10;
    pl_eagain = 0.08;
    pl_short_write = 0.20;
    pl_short_read = 0.15;
    pl_eio = 0.0;
    pl_fsync_fail = 0.0;
    pl_delay = 0.04;
    pl_delay_s = 0.0003;
    pl_enospc_after = None;
  }

let plan_of_seed seed =
  let enospc_bit = Int64.logand (derive ~seed ~index:0) 1L = 1L in
  if not enospc_bit then recoverable_plan
  else
    let onset_draw = Int64.to_int (Int64.logand (derive ~seed ~index:1) 0xFFFFL) in
    let onset = 16_384 + (onset_draw mod 49_152) in
    { recoverable_plan with pl_enospc_after = Some onset }

(* ------------------------------------------------------------------ *)
(* Ambient chaos state and counters                                    *)
(* ------------------------------------------------------------------ *)

type stats = {
  st_faults : int;
  st_eintr : int;
  st_eagain : int;
  st_short_writes : int;
  st_short_reads : int;
  st_eio : int;
  st_enospc : int;
  st_fsync_fail : int;
  st_delays : int;
  st_retries : int;
  st_salvages : int;
  st_reads : int;
  st_writes : int;
  st_fsyncs : int;
}

let zero_stats =
  {
    st_faults = 0;
    st_eintr = 0;
    st_eagain = 0;
    st_short_writes = 0;
    st_short_reads = 0;
    st_eio = 0;
    st_enospc = 0;
    st_fsync_fail = 0;
    st_delays = 0;
    st_retries = 0;
    st_salvages = 0;
    st_reads = 0;
    st_writes = 0;
    st_fsyncs = 0;
  }

type ambient = { am_seed : int64; am_plan : plan }

let lock = Mutex.create ()
let ambient : ambient option ref = ref None
let counters = ref zero_stats
let salvages : string list ref = ref []
let label_instances : (string, int) Hashtbl.t = Hashtbl.create 16

(* Bytes written through file handles since arming; drives the ENOSPC
   budget. Mutex-protected like the counters. *)
let file_bytes = ref 0

(* Calls through every handle, armed or not: an atomic bump each, so the
   passthrough path takes no lock. *)
let reads = Atomic.make 0
let writes = Atomic.make 0
let fsyncs = Atomic.make 0

let reset_calls () = List.iter (fun c -> Atomic.set c 0) [ reads; writes; fsyncs ]

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let arm ?plan ~seed () =
  let plan = match plan with Some p -> p | None -> plan_of_seed seed in
  with_lock (fun () ->
      ambient := Some { am_seed = seed; am_plan = plan };
      counters := zero_stats;
      salvages := [];
      file_bytes := 0;
      reset_calls ();
      Hashtbl.reset label_instances)

let disarm () = with_lock (fun () -> ambient := None)
let armed_seed () = match !ambient with Some a -> Some a.am_seed | None -> None
let stats () =
  with_lock (fun () ->
      {
        !counters with
        st_reads = Atomic.get reads;
        st_writes = Atomic.get writes;
        st_fsyncs = Atomic.get fsyncs;
      })

let reset_stats () =
  with_lock (fun () ->
      counters := zero_stats;
      salvages := [];
      file_bytes := 0;
      reset_calls ())

type kind =
  | Eintr
  | Eagain
  | Short_write
  | Short_read
  | Eio
  | Enospc
  | Fsync_fail
  | Delay

let count kind =
  with_lock (fun () ->
      let c = !counters in
      let c = { c with st_faults = c.st_faults + 1 } in
      counters :=
        (match kind with
        | Eintr -> { c with st_eintr = c.st_eintr + 1 }
        | Eagain -> { c with st_eagain = c.st_eagain + 1 }
        | Short_write -> { c with st_short_writes = c.st_short_writes + 1 }
        | Short_read -> { c with st_short_reads = c.st_short_reads + 1 }
        | Eio -> { c with st_eio = c.st_eio + 1 }
        | Enospc -> { c with st_enospc = c.st_enospc + 1 }
        | Fsync_fail -> { c with st_fsync_fail = c.st_fsync_fail + 1 }
        | Delay -> { c with st_delays = c.st_delays + 1 }))

let note_retry () =
  with_lock (fun () -> counters := { !counters with st_retries = !counters.st_retries + 1 })

let note_salvage label =
  with_lock (fun () ->
      counters := { !counters with st_salvages = !counters.st_salvages + 1 };
      if not (List.mem label !salvages) then salvages := !salvages @ [ label ])

let salvage_labels () = with_lock (fun () -> !salvages)

let render_stats () =
  let s = stats () in
  Printf.sprintf
    "faults=%d (eintr=%d eagain=%d short-write=%d short-read=%d delay=%d enospc=%d eio=%d \
     fsync=%d) retries=%d salvages=%d"
    s.st_faults s.st_eintr s.st_eagain s.st_short_writes s.st_short_reads s.st_delays
    s.st_enospc s.st_eio s.st_fsync_fail s.st_retries s.st_salvages

(* ------------------------------------------------------------------ *)
(* Handles                                                             *)
(* ------------------------------------------------------------------ *)

type chaos_state = {
  cs_plan : plan;
  cs_stream : int64;  (* per-(seed, label, instance) stream seed *)
  mutable cs_counter : int;  (* counter-style draw index within the stream *)
  cs_file : bool;  (* participates in the ENOSPC byte budget *)
}

type t = { t_fd : Unix.file_descr; t_chaos : chaos_state option }

let wrap ~file ?(label = "io") fd =
  match !ambient with
  | None -> { t_fd = fd; t_chaos = None }
  | Some { am_seed; am_plan } ->
      let instance =
        with_lock (fun () ->
            let n = try Hashtbl.find label_instances label with Not_found -> 0 in
            Hashtbl.replace label_instances label (n + 1);
            n)
      in
      let stream = derive ~seed:(Int64.add am_seed (fnv64 label)) ~index:instance in
      {
        t_fd = fd;
        t_chaos =
          Some { cs_plan = am_plan; cs_stream = stream; cs_counter = 0; cs_file = file };
      }

let wrap_file ?label fd = wrap ~file:true ?label fd
let wrap_stream ?label fd = wrap ~file:false ?label fd

let draw cs =
  let i = cs.cs_counter in
  cs.cs_counter <- i + 1;
  float_of_bits (derive ~seed:cs.cs_stream ~index:i)

let unix_error kind code op =
  count kind;
  raise (Unix.Unix_error (code, op, "iofault"))

(* Decide the fate of one syscall: returns the number of bytes the
   perturbed call may transfer (<= len), or raises. *)
let perturb cs ~write ~op len =
  let p = cs.cs_plan in
  (if draw cs < p.pl_delay then begin
     count Delay;
     Unix.sleepf p.pl_delay_s
   end);
  if draw cs < p.pl_eintr then unix_error Eintr Unix.EINTR op;
  if draw cs < p.pl_eagain then unix_error Eagain Unix.EAGAIN op;
  if draw cs < p.pl_eio then unix_error Eio Unix.EIO op;
  let short_rate = if write then p.pl_short_write else p.pl_short_read in
  if len > 1 && draw cs < short_rate then begin
    count (if write then Short_write else Short_read);
    (* a strict prefix, at least one byte: 1 + u * (len - 1) *)
    1 + int_of_float (draw cs *. float_of_int (len - 1))
  end
  else len

(* ENOSPC budget: [claim n] returns how many of [n] bytes still fit;
   0 with the budget exhausted means the disk is full. *)
let enospc_claim cs n =
  match cs.cs_plan.pl_enospc_after with
  | None ->
      n
  | Some budget ->
      with_lock (fun () ->
          let remaining = budget - !file_bytes in
          let granted = max 0 (min n remaining) in
          file_bytes := !file_bytes + granted;
          granted)

let read t buf pos len =
  Atomic.incr reads;
  match t.t_chaos with
  | None -> Unix.read t.t_fd buf pos len
  | Some cs ->
      let len' = perturb cs ~write:false ~op:"read" len in
      Unix.read t.t_fd buf pos len'

let write_substring t s pos len =
  Atomic.incr writes;
  match t.t_chaos with
  | None -> Unix.write_substring t.t_fd s pos len
  | Some cs ->
      let len' = perturb cs ~write:true ~op:"write" len in
      let len' =
        if not cs.cs_file then len'
        else
          let granted = enospc_claim cs len' in
          if granted = 0 && len' > 0 then unix_error Enospc Unix.ENOSPC "write";
          granted
      in
      Unix.write_substring t.t_fd s pos len'

(* Bounded exponential backoff for the retriable faults. EINTR retries
   immediately; EAGAIN sleeps (base 50us doubling to 5ms); short writes
   just continue from the new offset. The retry budget is generous but
   finite so a pathological descriptor cannot hang a campaign silently. *)
let max_retries = 10_000
let max_consecutive_eagain = 64
let backoff_base = 5e-5
let backoff_max = 5e-3

let write_fully t s =
  let n = String.length s in
  let off = ref 0 in
  let retries = ref 0 in
  let eagain_streak = ref 0 in
  let backoff = ref backoff_base in
  while !off < n do
    if !retries > max_retries then
      raise (Unix.Unix_error (Unix.EAGAIN, "write", "iofault: retry budget exhausted"));
    match write_substring t s !off (n - !off) with
    | w ->
        eagain_streak := 0;
        backoff := backoff_base;
        if w < n - !off then begin
          incr retries;
          note_retry ()
        end;
        off := !off + w
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        incr retries;
        note_retry ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        incr eagain_streak;
        if !eagain_streak > max_consecutive_eagain then
          raise (Unix.Unix_error (Unix.EAGAIN, "write", "iofault: descriptor wedged"));
        incr retries;
        note_retry ();
        Unix.sleepf !backoff;
        backoff := Float.min backoff_max (!backoff *. 2.0)
  done

let fsync t =
  Atomic.incr fsyncs;
  match t.t_chaos with
  | None -> Unix.fsync t.t_fd
  | Some cs ->
      if draw cs < cs.cs_plan.pl_fsync_fail then unix_error Fsync_fail Unix.EIO "fsync";
      Unix.fsync t.t_fd

let close t = Unix.close t.t_fd
