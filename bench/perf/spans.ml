(* In-memory span recorder for the traced loop.

   A span is one call into a layer: name, start and end on the monotonic
   clock (ns since the recorder was created), the enclosing span, and the
   trial it belongs to (-1 outside trials). Spans are only ever opened
   around calls made from this benchmark's own files, so children nest
   inside their parent and never overlap each other. *)

type span = { name : string; start : int; stop : int; parent : int; trial : int }

type t = {
  on : bool;
  origin : int;
  mutable buf : span array;
  mutable len : int;
  mutable cur : int;
}

let dummy = { name = ""; start = 0; stop = 0; parent = -1; trial = -1 }
let off = { on = false; origin = 0; buf = [||]; len = 0; cur = -1 }
let create () = { on = true; origin = Host.raw_ns (); buf = Array.make 4096 dummy; len = 0; cur = -1 }

let now t = Host.raw_ns () - t.origin

let with_span t ?(trial = -1) name f =
  if not t.on then f ()
  else begin
    let parent = t.cur in
    let trial = if trial >= 0 || parent < 0 then trial else t.buf.(parent).trial in
    if t.len = Array.length t.buf then begin
      let bigger = Array.make (2 * t.len) dummy in
      Array.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
    end;
    let id = t.len in
    t.len <- id + 1;
    t.buf.(id) <- { name; start = now t; stop = -1; parent; trial };
    t.cur <- id;
    let close () =
      t.buf.(id) <- { (t.buf.(id)) with stop = now t };
      t.cur <- parent
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let spans t = Array.sub t.buf 0 t.len
let duration s = s.stop - s.start

(* Self time: a span's duration minus the time its children cover. *)
let self_times spans =
  let self = Array.map duration spans in
  Array.iter (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) - duration s) spans;
  self

(* The tree invariants every trace must satisfy; [Error] names the first
   violation. *)
let check spans =
  let n = Array.length spans in
  let last_child_stop = Array.make n min_int in
  let root_stop = ref min_int in
  let rec go i =
    if i = n then Ok ()
    else
      let s = spans.(i) in
      if s.stop < s.start then Error (Printf.sprintf "span %d (%s) ends before it starts" i s.name)
      else if s.parent >= i then Error (Printf.sprintf "span %d (%s) precedes its parent" i s.name)
      else
        let prev = if s.parent < 0 then !root_stop else last_child_stop.(s.parent) in
        if s.start < prev then Error (Printf.sprintf "span %d (%s) overlaps its sibling" i s.name)
        else if
          s.parent >= 0
          && (s.start < spans.(s.parent).start || s.stop > spans.(s.parent).stop)
        then Error (Printf.sprintf "span %d (%s) lies outside its parent" i s.name)
        else if s.parent >= 0 && s.trial <> spans.(s.parent).trial && spans.(s.parent).trial >= 0
        then Error (Printf.sprintf "span %d (%s) changes trial inside its parent" i s.name)
        else begin
          if s.parent < 0 then root_stop := s.stop else last_child_stop.(s.parent) <- s.stop;
          go (i + 1)
        end
  in
  go 0

let to_json ~workload spans =
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("clock", Json.Str "monotonic ns since the recorder was created");
      ( "spans",
        Json.Arr
          (Array.to_list
             (Array.map
                (fun s ->
                  Json.Arr
                    [
                      Json.Str s.name;
                      Json.Num (float_of_int s.start);
                      Json.Num (float_of_int s.stop);
                      Json.Num (float_of_int s.parent);
                      Json.Num (float_of_int s.trial);
                    ])
                spans)) );
    ]

let of_json j =
  Json.to_list (Json.field "spans" j)
  |> List.map (function
       | Json.Arr [ Json.Str name; Json.Num a; Json.Num b; Json.Num p; Json.Num tr ] ->
         { name; start = int_of_float a; stop = int_of_float b; parent = int_of_float p; trial = int_of_float tr }
       | _ -> raise (Json.Parse_error "malformed span"))
  |> Array.of_list
