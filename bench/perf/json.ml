(* The little JSON this benchmark reads and writes: BENCHMARK.json, run
   results and span traces. *)

type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Integral values print as integers; everything else with all 17
   significant digits, so a value reads back exactly. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num f -> Buffer.add_string b (number f)
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        write b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        write b (Str k);
        Buffer.add_string b ": ";
        write b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\r' || s.[!pos] = '\t')
    then (incr pos; ws ())
  in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        if !pos + 1 >= n then fail "bad escape";
        (match s.[!pos + 1] with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 5 >= n then fail "bad \\u escape";
          let code = int_of_string ("0x" ^ String.sub s (!pos + 2) 4) in
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else Buffer.add_utf_8_uchar b (Uchar.of_int code);
          pos := !pos + 4
        | c -> Buffer.add_char b c);
        pos := !pos + 2;
        go ()
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      ws ();
      if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          ws ();
          let k = str () in
          ws ();
          expect ':';
          let v = value () in
          ws ();
          if !pos < n && s.[!pos] = ',' then (incr pos; fields ((k, v) :: acc))
          else (expect '}'; Obj (List.rev ((k, v) :: acc)))
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if !pos < n && s.[!pos] = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          if !pos < n && s.[!pos] = ',' then (incr pos; items (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number")
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing bytes";
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let field k v = Option.value ~default:Null (member k v)

let to_list = function Arr xs -> xs | _ -> []
let to_num = function Num f -> f | _ -> nan
let to_str = function Str s -> s | _ -> ""

let read_file path =
  let ic = open_in_bin path in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  of_string s

let write_file path v =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string v))
