(* Host-speed probe and the probe-excluded clock.

   A shared host's speed drifts by tens of percent within seconds (frequency
   scaling, steal time, neighbours' cache traffic). The probe below is a
   fixed amount of interpreter-like work owned by this benchmark, never by
   the program under test; dividing every measured time by
   [mean probe / nominal_ms] reports it at the speed of a reference host on
   which the probe takes exactly [nominal_ms].

   FROZEN: the program, memory size, iteration count and [nominal_ms] define
   the reference host. Changing any of them changes every normalised number
   the benchmark has ever reported, so a change here is a new benchmark, not
   an edit. *)

let nominal_ms = 5.0
let iterations = 830_000
let min_gap_ns = 200_000_000 (* sample at most every 200 ms *)

(* A byte-code loop over a 1 MiB byte memory: table dispatch, data-dependent
   branches, loads and stores — the shape of the simulator's own hot loop,
   so the probe slows down with the host the way trials do. *)
let program = lazy (Array.init 4096 (fun i -> ((i * 2654435761) lsr 7) land 0xFFFFF))
let memory = lazy (Bytes.make (1 lsl 20) 'a')

let interpret () =
  let prog = Lazy.force program and mem = Lazy.force memory in
  let mask = (1 lsl 20) - 1 in
  let acc = ref 1 and pc = ref 0 in
  for _ = 1 to iterations do
    let ins = Array.unsafe_get prog !pc in
    let arg = ins lsr 3 in
    (match ins land 7 with
    | 0 -> acc := !acc + arg
    | 1 -> acc := !acc lxor (arg lsl 3)
    | 2 -> acc := !acc + Char.code (Bytes.unsafe_get mem ((!acc + arg) land mask))
    | 3 -> Bytes.unsafe_set mem ((!acc lxor arg) land mask) (Char.unsafe_chr (!acc land 255))
    | 4 -> if !acc land 1 = 0 then pc := (!pc + arg) land 4095
    | 5 -> acc := !acc * 3
    | 6 -> acc := (!acc lsr 1) lor (arg land 1)
    | _ -> pc := arg land 4095);
    pc := (!pc + 1) land 4095
  done;
  !acc

let raw_ns () = Int64.to_int (Monotonic_clock.now ())

(* Everything the probe costs is subtracted from [now], so the probe never
   shows up in a timed phase. *)
let excluded = ref 0
let last = ref (-min_gap_ns)
let samples = ref []
let fresh = ref []
let sink = ref 0

let now () = raw_ns () - !excluded

let probe () =
  let t0 = raw_ns () in
  sink := !sink lxor interpret ();
  let t1 = raw_ns () in
  let ms = float_of_int (t1 - t0) /. 1e6 in
  samples := ms :: !samples;
  fresh := ms :: !fresh;
  last := t1;
  excluded := !excluded + (raw_ns () - t0)

(* The memory is the walk's own state: it evolves from pass to pass and
   settles after about three passes into an instruction mix that then moves
   by about 1%. Those first passes, which also fault the memory in, stay out
   of the samples. *)
let warm () =
  for _ = 1 to 3 do
    sink := !sink lxor interpret ()
  done

let due () = raw_ns () - !last >= min_gap_ns
let maybe_probe () = if due () then probe ()
let probe_ms () = List.rev !samples

(* Divide a time by this (multiply a rate) to get reference-host units. The
   mean, not the median: steal time arrives in bursts, and a burst slows the
   trials around it as much as the probe that catches it. *)
let slowdown_of ms = Quant.mean ms /. nominal_ms
let slowdown () = slowdown_of (probe_ms ())

(* The samples taken since the last call. *)
let drain () =
  let ms = List.rev !fresh in
  fresh := [];
  ms

(* Three samples back to back, between rounds. *)
let boundary () =
  for _ = 1 to 3 do
    probe ()
  done;
  drain ()
