module System = Ferrite_kernel.System
module Image = Ferrite_kir.Image

type sample = { fn_name : string; samples : int; fraction : float }

(* pc -> function slot over the image's function extents: [slot.(pc - lo)]
   is the index in [names] of the function containing [pc], or -1, exactly
   what [Image.function_at]'s binary search finds (the functions are sorted
   and disjoint). Functions sharing a name share a slot. *)
type pc_table = { lo : int; slot : int array; names : string array }

let pc_table (image : Image.t) =
  let funcs = image.Image.img_funcs in
  let n = Array.length funcs in
  if n = 0 then { lo = 0; slot = [||]; names = [||] }
  else begin
    let lo = funcs.(0).Image.fs_addr in
    let hi = Array.fold_left (fun h f -> max h (f.Image.fs_addr + f.Image.fs_size)) lo funcs in
    let slot = Array.make (hi - lo) (-1) in
    let ids = Hashtbl.create n and names = ref [] in
    Array.iter
      (fun (f : Image.func_sym) ->
        let id =
          match Hashtbl.find_opt ids f.Image.fs_name with
          | Some id -> id
          | None ->
            let id = Hashtbl.length ids in
            Hashtbl.replace ids f.Image.fs_name id;
            names := f.Image.fs_name :: !names;
            id
        in
        Array.fill slot (f.Image.fs_addr - lo) f.Image.fs_size id)
      funcs;
    { lo; slot; names = Array.of_list (List.rev !names) }
  end

let profile ?(seed = 0x9E1DL) ?(ops = 48) ?(sample_every = 4) sys =
  let rng = Ferrite_machine.Rng.create ~seed in
  let wl = Workload.mix ~ops () in
  let runner = Runner.create sys ~ops:(wl.Workload.wl_ops rng) in
  let table = pc_table sys.System.image in
  let counts = Array.make (Array.length table.names) 0 in
  let first_seen = ref [] in
  let total = ref 0 in
  let record pc =
    let i = pc - table.lo in
    if i >= 0 && i < Array.length table.slot then begin
      let id = Array.unsafe_get table.slot i in
      if id >= 0 then begin
        incr total;
        let c = Array.unsafe_get counts id in
        if c = 0 then first_seen := id :: !first_seen;
        Array.unsafe_set counts id (c + 1)
      end
    end
  in
  let budget = 4_000_000 in
  let rec go n =
    if n = 0 then ()
    else begin
      (match System.step sys with
      | System.Retired | System.Halted | System.Hit_dbp _ | System.Hit_ibp -> ()
      | System.Stopped -> ()
      | System.Faulted _ -> failwith "Profiler: fault during fault-free profiling run");
      if n mod sample_every = 0 then record (System.pc sys);
      if n land 255 = 0 && Runner.tick runner = Runner.Done then ()
      else go (n - 1)
    end
  in
  go budget;
  (* Equal counts keep the order of a string table filled in first-seen
     order (the stable sort below sees its fold order), so the list is the
     same as counting into that table directly. *)
  let by_name : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun id -> Hashtbl.replace by_name table.names.(id) counts.(id))
    (List.rev !first_seen);
  let samples =
    Hashtbl.fold (fun name n acc -> (name, n) :: acc) by_name []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let totalf = float_of_int (max 1 !total) in
  List.map
    (fun (fn_name, n) -> { fn_name; samples = n; fraction = float_of_int n /. totalf })
    samples

let hot_functions ?(coverage = 0.95) samples =
  let rec take acc cum = function
    | [] -> List.rev acc
    | s :: rest ->
      let cum = cum +. s.fraction in
      if cum >= coverage then List.rev (s.fn_name :: acc)
      else take (s.fn_name :: acc) cum rest
  in
  take [] 0.0 samples
