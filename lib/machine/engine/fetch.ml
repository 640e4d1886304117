(* The fetch path and the precise step, written once for both ISAs. Like
   translate.ml, each CPU library copies this file next to its own [Isa]
   module (dune copy_files), so every call below into [Isa] is a direct call
   to a known function. The ISA supplies only semantics: the fetch check, a
   plain decode, a decode that records the bytes it read, the compare of
   recorded bytes against memory, the fault mappings, cycle costs, [exec],
   [compile] and the halt rule. Only the block builder compiles micro-ops
   ([Isa.compile]), through [uop], which keeps each in its decode-cache
   entry: the precise step and the profiler never compile. *)

open Ferrite_machine

(* Point [e] at the page(s) holding [pc]'s [len] bytes, at their current
   generations; [false], leaving [e] as it was, if either is unmapped. *)
let set_pages t (e : (Isa.op, Isa.t) Tcache.dentry) pc len =
  let mem = t.Isa.mem in
  match (Memory.page_at_opt mem pc, Memory.page_at_opt mem (pc + len - 1)) with
  | Some pg1, Some pg2 ->
    e.d_pg1 <- pg1;
    e.d_wg1 <- Memory.page_generation pg1;
    e.d_pg2 <- pg2;
    e.d_wg2 <- Memory.page_generation pg2;
    true
  | _ -> false

(* Decode [pc] afresh into [e], recording the bytes the decoder reads. [e]
   is marked empty first: the decoder writes over its bytes, and a failed
   decode must not leave them under a live pc; the new op is not compiled
   yet. *)
let fill t (c : (Isa.op, Isa.t) Tcache.t) (e : (Isa.op, Isa.t) Tcache.dentry) pc =
  e.d_pc <- -1;
  let op = Isa.decode_record t pc e.d_bytes in
  let cost = Isa.cycles_of_insn op in
  e.d_op <- op;
  e.d_uop <- c.no_uop;
  e.d_cost <- cost;
  c.last_cost <- cost;
  op

(* The instruction at [pc], through the PC-keyed decode cache, with its
   cycle cost left in [last_cost]. The ISA's fetch check runs before any
   probe, so poisoned translation faults exactly as in the uncached
   interpreter (a scrambled ISI on RISC, a scrambled #PF on CISC). An entry
   is valid while its pages' generations are unchanged: any store, poke,
   injected flip, remap or restore to another content evicts it, so the
   resync after a flipped byte is the uncached interpreter's. With the
   cache off ([Memory.fast_paths]) this is the plain decode, touching no
   entry. Raises what the ISA's decoder raises. *)
let decode t pc =
  let c = t.Isa.cache in
  if not c.dc_enabled then begin
    let op = Isa.decode t pc in
    c.last_cost <- Isa.cycles_of_insn op;
    op
  end
  else begin
    Isa.fetch_check t pc;
    let slot = Isa.slot pc in
    let e = Array.unsafe_get c.dcache slot in
    if
      e.d_pc = pc
      && ((Memory.page_generation e.d_pg1 = e.d_wg1
          && Memory.page_generation e.d_pg2 = e.d_wg2)
         (* Byte revalidation: a stale generation but unchanged bytes (the
            page was written elsewhere, typical of wild execution storing
            into its own code page). Decoding is a pure function of the
            bytes, so the decode is still exact; the pages are refreshed
            from the current mapping, never from the entry's possibly
            replaced page objects, so a later remap still misses. *)
         || (Isa.matches t pc e 0 && set_pages t e pc (Isa.length e.d_op)))
    then begin
      c.dc_hits <- c.dc_hits + 1;
      if e.d_warm then c.dc_warm_hits <- c.dc_warm_hits + 1;
      c.dc_streak <- 0;
      c.last_cost <- e.d_cost;
      e.d_op
    end
    else begin
      c.dc_misses <- c.dc_misses + 1;
      if c.dc_streak >= Tcache.bypass_streak then begin
        (* A bypass streak: decode afresh and insert nothing. The fetch check
           ran above, so this is the recording decode, which does not repeat
           it; the bytes it records go to a buffer no one reads. *)
        let op = Isa.decode_record t pc c.bypass_bytes in
        c.last_cost <- Isa.cycles_of_insn op;
        op
      end
      else begin
        c.dc_streak <- c.dc_streak + 1;
        let e = Tcache.entry_at c slot in
        let op = fill t c e pc in
        if set_pages t e pc (Isa.length op) then begin
          e.d_pc <- pc;
          e.d_warm <- c.warming;
          if c.warming then c.prewarmed <- c.prewarmed + 1
        end;
        op
      end
    end
  end

(* The micro-op of [op], which [decode] has just returned for [pc]:
   compiled on the first call and kept in the decode-cache entry that holds
   [op], so a block rebuilt over the same bytes reuses it. An [op] that no
   entry holds (a bypass-streak decode, the cache off, an unmappable page)
   is compiled afresh. *)
let uop t pc op =
  let c = t.Isa.cache in
  let e = Array.unsafe_get c.dcache (Isa.slot pc) in
  if e.d_pc = pc && e.d_op == op then begin
    if e.d_uop == c.no_uop then e.d_uop <- Isa.compile pc op;
    e.d_uop
  end
  else Isa.compile pc op

(* Execute (at most) one instruction: an armed execute breakpoint at the pc
   is reported before anything runs (unless [skip_ibp]); a fetch or decode
   fault, or a fault in [exec], is delivered at the instruction's pc, which
   does not retire. A retired instruction reports, in this order, a return
   to the stop address, the ISA's halt, then a watchpoint hit. *)
let step ?(skip_ibp = false) t =
  let pc = Isa.pc t in
  if (not skip_ibp) && Debug_regs.check_exec t.Isa.dr pc then Step.Hit_ibp
  else begin
    (match t.pending_hit with Some _ -> t.pending_hit <- None | None -> ());
    t.stopped <- false;
    match decode t pc with
    | exception e -> Isa.deliver_fault t pc (Isa.decode_fault e)
    | op -> (
      Isa.set_pc t (Word.add pc (Isa.length op));
      match Isa.exec t pc op with
      | exception e -> Isa.deliver_fault t pc (Isa.fault_of_exn e)
      | () -> (
        Counters.retire t.counters ~cost:t.cache.last_cost;
        if t.stopped then Step.Stopped
        else if Isa.halts t pc op then Step.Halted
        else
          match t.pending_hit with
          | Some h -> Step.Hit_dbp h
          | None -> Step.Retired))
  end
