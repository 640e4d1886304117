type decision =
  | Grant of { d_lo : int; d_hi : int }
  | Wait
  | Drained

type completion = Fresh | Duplicate

type lease = {
  l_worker : int;
  l_lo : int;
  l_hi : int;  (* exclusive *)
  mutable l_incomplete : int;  (* trials of [l_lo, l_hi) not yet complete; > 0 *)
}

type t = {
  total : int;
  chunk : int;
  max_deaths : int;
  mutable pending : (int * int) list;
      (* disjoint [lo, hi) ranges not currently leased; may contain
         completed trials, a journal's or a straggler's (skipped on grant) *)
  done_ : bool array;
  mutable ndone : int;
  mutable leases : lease list;  (* insertion order *)
  deaths : int array;  (* worker deaths charged per trial *)
}

let create ~total ~chunk ~max_deaths =
  if total <= 0 then invalid_arg "Lease.create: total must be positive";
  if chunk <= 0 then invalid_arg "Lease.create: chunk must be positive";
  if max_deaths < 0 then invalid_arg "Lease.create: negative max_deaths";
  {
    total;
    chunk;
    max_deaths;
    pending = [ (0, total) ];
    done_ = Array.make total false;
    ndone = 0;
    leases = [];
    deaths = Array.make total 0;
  }

let incomplete_in t lo hi =
  let n = ref 0 in
  for i = lo to hi - 1 do
    if not t.done_.(i) then incr n
  done;
  !n

(* Append the incomplete runs of [lo, hi) back to pending (requeue order is
   irrelevant to the merge — records land by trial index). *)
let requeue t lo hi =
  let runs = ref [] in
  let n = ref 0 in
  let i = ref lo in
  while !i < hi do
    if t.done_.(!i) then incr i
    else begin
      let s = !i in
      while !i < hi && not t.done_.(!i) do
        incr i
      done;
      runs := (s, !i) :: !runs;
      n := !n + (!i - s)
    end
  done;
  t.pending <- t.pending @ List.rev !runs;
  !n

(* Pop the next chunk of incomplete trials off the pending ranges. A chunk
   stops short of a completed trial (one recovered from a journal, or a
   straggler's), so a grant never asks a worker to re-run finished work. *)
let rec pop_chunk t =
  match t.pending with
  | [] -> None
  | (lo, hi) :: rest ->
    let lo = ref lo in
    while !lo < hi && t.done_.(!lo) do
      incr lo
    done;
    if !lo >= hi then begin
      t.pending <- rest;
      pop_chunk t
    end
    else begin
      let glo = !lo in
      let rec stop i = if i < hi && i - glo < t.chunk && not t.done_.(i) then stop (i + 1) else i in
      let ghi = stop glo in
      t.pending <- (if ghi < hi then (ghi, hi) :: rest else rest);
      Some (glo, ghi)
    end

let request t ~worker =
  if t.ndone = t.total then Drained
  else
    match pop_chunk t with
    | Some (lo, hi) ->
      t.leases <- t.leases @ [ { l_worker = worker; l_lo = lo; l_hi = hi; l_incomplete = hi - lo } ];
      Grant { d_lo = lo; d_hi = hi }
    | None -> Wait

(* Live leases are disjoint, so at most one holds [index]; it leaves the
   table with its last incomplete trial. *)
let complete t ~index =
  if index < 0 || index >= t.total || t.done_.(index) then Duplicate
  else begin
    t.done_.(index) <- true;
    t.ndone <- t.ndone + 1;
    (match List.find_opt (fun l -> l.l_lo <= index && index < l.l_hi) t.leases with
    | Some l ->
      l.l_incomplete <- l.l_incomplete - 1;
      if l.l_incomplete = 0 then t.leases <- List.filter (( != ) l) t.leases
    | None -> ());
    Fresh
  end

let worker_dead t ~worker ~requeued =
  let mine, others = List.partition (fun l -> l.l_worker = worker) t.leases in
  t.leases <- others;
  let poisoned = ref [] in
  List.iter
    (fun l ->
      for i = l.l_lo to l.l_hi - 1 do
        if not t.done_.(i) then begin
          t.deaths.(i) <- t.deaths.(i) + 1;
          if t.deaths.(i) > t.max_deaths then poisoned := i :: !poisoned
          else begin
            ignore (requeue t i (i + 1));
            requeued := i :: !requeued
          end
        end
      done)
    mine;
  List.rev !poisoned

let worker_leave t ~worker =
  let mine, others = List.partition (fun l -> l.l_worker = worker) t.leases in
  t.leases <- others;
  List.fold_left (fun n l -> n + requeue t l.l_lo l.l_hi) 0 mine

let finished t = t.ndone = t.total
let completed t = t.ndone

let pending_trials t =
  List.fold_left (fun n (lo, hi) -> n + incomplete_in t lo hi) 0 t.pending

let live_leases t = List.map (fun l -> (l.l_worker, l.l_lo, l.l_hi)) t.leases
