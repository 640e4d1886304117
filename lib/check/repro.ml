(* Replayable reproducer files.

   Every fuzz find is shrunk and then serialised as a small, human-readable
   file under test/repro/, where the tier-1 suite replays it forever after —
   a fuzz find becomes a permanent regression test.  Two kinds:

   - stream: a byte stream violating one of the {!Oracle} stream laws;
   - fault: a differential trial (campaign spec + trial index) whose records,
     traces or telemetry diverged between configurations.

   The format is line-based `key value` with a versioned magic header, so a
   failing file diff shows exactly what regressed. *)

module Image = Ferrite_kir.Image
module Target = Ferrite_injection.Target

type oracle = Roundtrip | Robust

type t =
  | Stream of { arch : Image.arch; oracle : oracle; bytes : string; note : string }
  | Fault of { spec : Diff.spec; trial : int; note : string }

let magic = "ferrite-repro 1"

(* --- rendering ------------------------------------------------------------ *)

let arch_to_string = function Image.Cisc -> "p4" | Image.Risc -> "g4"

let arch_of_string = function
  | "p4" -> Some Image.Cisc
  | "g4" -> Some Image.Risc
  | _ -> None

let kind_to_string = function
  | Target.Stack -> "stack"
  | Target.Data -> "data"
  | Target.Code -> "code"
  | Target.Register -> "register"

let kind_of_string = function
  | "stack" -> Some Target.Stack
  | "data" -> Some Target.Data
  | "code" -> Some Target.Code
  | "register" -> Some Target.Register
  | _ -> None

let hex_compact s =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.of_seq (String.to_seq s))))

let unhex s =
  if String.length s mod 2 <> 0 then None
  else
    try
      Some
        (String.init (String.length s / 2) (fun i ->
             Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2))))
    with _ -> None

let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

let to_string t =
  let b = Buffer.create 256 in
  let kv k v = Buffer.add_string b (k ^ " " ^ v ^ "\n") in
  Buffer.add_string b (magic ^ "\n");
  (match t with
  | Stream { arch; oracle; bytes; note } ->
    kv "kind" "stream";
    kv "arch" (arch_to_string arch);
    kv "oracle" (match oracle with Roundtrip -> "roundtrip" | Robust -> "robust");
    kv "bytes" (hex_compact bytes);
    if note <> "" then kv "note" (one_line note)
  | Fault { spec; trial; note } ->
    kv "kind" "fault";
    kv "arch" (arch_to_string spec.Diff.df_arch);
    kv "target" (kind_to_string spec.Diff.df_kind);
    kv "seed" (Printf.sprintf "0x%Lx" spec.Diff.df_seed);
    kv "injections" (string_of_int spec.Diff.df_injections);
    kv "trial" (string_of_int trial);
    kv "step-budget" (string_of_int spec.Diff.df_step_budget);
    if note <> "" then kv "note" (one_line note));
  Buffer.contents b

(* --- parsing -------------------------------------------------------------- *)

let parse_lines s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | None -> Some (line, "")
           | Some i ->
             Some
               ( String.sub line 0 i,
                 String.trim (String.sub line (i + 1) (String.length line - i - 1)) ))

let of_string s =
  let ( let* ) = Result.bind in
  match parse_lines s with
  | (k, v) :: fields when k ^ " " ^ v = magic ->
    let find key = List.assoc_opt key fields in
    let require key =
      match find key with Some v -> Ok v | None -> Error ("missing field: " ^ key)
    in
    let int_field key =
      let* v = require key in
      match int_of_string_opt v with
      | Some n -> Ok n
      | None -> Error ("bad integer in field " ^ key)
    in
    let note = Option.value ~default:"" (find "note") in
    let* kind = require "kind" in
    let* arch_s = require "arch" in
    let* arch =
      match arch_of_string arch_s with
      | Some a -> Ok a
      | None -> Error ("unknown arch: " ^ arch_s)
    in
    (match kind with
    | "stream" ->
      let* oracle_s = require "oracle" in
      let* oracle =
        match oracle_s with
        | "roundtrip" -> Ok Roundtrip
        | "robust" -> Ok Robust
        | _ -> Error ("unknown oracle: " ^ oracle_s)
      in
      let* hex = require "bytes" in
      (match unhex hex with
      | Some bytes -> Ok (Stream { arch; oracle; bytes; note })
      | None -> Error "bad hex in field bytes")
    | "fault" ->
      let* kind_s = require "target" in
      let* dk =
        match kind_of_string kind_s with
        | Some k -> Ok k
        | None -> Error ("unknown target kind: " ^ kind_s)
      in
      let* seed_s = require "seed" in
      let* seed =
        match Int64.of_string_opt seed_s with
        | Some s -> Ok s
        | None -> Error ("bad seed: " ^ seed_s)
      in
      let* injections = int_field "injections" in
      let* trial = int_field "trial" in
      let* budget = int_field "step-budget" in
      (* only the paper's single-bit, uniform trial replays: a file naming
         another fault model or targeting policy is refused, not ignored *)
      let* () =
        match List.find_opt (fun k -> find k <> None) [ "fault-model"; "targeting" ] with
        | Some k -> Error ("retired field: " ^ k)
        | None -> Ok ()
      in
      if trial < 0 || trial >= injections then Error "trial outside injections"
      else
        Ok
          (Fault
             {
               spec =
                 {
                   Diff.df_arch = arch;
                   df_kind = dk;
                   df_seed = seed;
                   df_injections = injections;
                   df_step_budget = budget;
                 };
               trial;
               note;
             })
    | _ -> Error ("unknown repro kind: " ^ kind))
  | _ -> Error "not a ferrite-repro file (bad magic)"

(* --- replay --------------------------------------------------------------- *)

let replay t =
  let of_violation = function
    | Ok () -> Ok ()
    | Error { Oracle.v_pos; v_msg } ->
      Error (Printf.sprintf "violation at byte %d: %s" v_pos v_msg)
  in
  match t with
  | Stream { arch = Image.Cisc; oracle = Roundtrip; bytes; _ } ->
    of_violation (Oracle.check_cisc_stream bytes)
  | Stream { arch = Image.Cisc; oracle = Robust; bytes; _ } ->
    of_violation (Oracle.check_cisc_robust bytes)
  | Stream { arch = Image.Risc; oracle = Roundtrip; bytes; _ } ->
    of_violation (Oracle.check_risc_stream bytes)
  | Stream { arch = Image.Risc; oracle = Robust; bytes; _ } ->
    of_violation (Oracle.check_risc_robust bytes)
  | Fault { spec; trial; _ } -> (
    match Diff.run_trial spec ~trial with
    | Ok () -> Ok ()
    | Error { Diff.mm_config; mm_what; mm_trial = _ } ->
      Error
        (Printf.sprintf "%s diverged from reference/sequential in %s (%s)"
           mm_config mm_what (Diff.describe spec)))

(* --- files ---------------------------------------------------------------- *)

(* FNV-1a 64-bit: a deterministic content hash for stable file names *)
let content_hash s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    s;
  Int64.logand !h 0xFFFFFFFFFFFFL

let file_name t =
  let body = to_string t in
  let tag =
    match t with
    | Stream { arch; _ } -> "stream-" ^ arch_to_string arch
    | Fault { spec; _ } ->
      "fault-" ^ arch_to_string spec.Diff.df_arch ^ "-" ^ kind_to_string spec.Diff.df_kind
  in
  Printf.sprintf "%s-%012Lx.repro" tag (content_hash body)

let save ~dir t =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (file_name t) in
  let oc = open_out_bin path in
  output_string oc (to_string t);
  close_out oc;
  path

let load path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    of_string s
  with Sys_error e -> Error e

let load_dir dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           (path, load path))
