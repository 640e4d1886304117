(* The superblock translation engine, written once for both ISAs. Each CPU
   library copies this file next to its own [Isa] module (dune copy_files),
   so every call below into [Isa] is a direct call to a known function, and
   the micro-op arrays have the ISA's manifest element type. A functor would
   make those calls indirect: OCaml without flambda does not specialise a
   functor's body to its argument.

   A micro-op is either the decoded instruction, which the run loop passes
   to [Isa.exec] by a direct call, or the closure [Isa.compile] specialised
   to its operands when the block was built; calling that closure is the
   run loop's one indirect call. Both run through the same access helpers
   and fault delivery as the precise [Fetch.step], so the layer is
   observationally invisible. *)

open Ferrite_machine

(* Decode a run of instructions starting at [pc] into [b], following
   statically-known branch targets ([Isa.followed]: direct jumps and calls,
   and backward conditional branches predicted taken — the common shape of a
   loop back-edge), so tight loops unroll into the block instead of paying
   the block-entry overhead every iteration. Each micro-op comes compiled
   from its decode-cache entry ([Fetch.uop]). [b_succ] records each
   micro-op's expected post-exec pc; execution compares the pc against it
   and leaves the block precisely — with the pc already exact — on any
   mispredicted or indirect redirect. Returns [true], and counts the block
   built, when at least one micro-op was recorded. Stops at capacity, a
   terminator, an indirect redirect, the two-distinct-page cap, or a
   fetch/decode fault — the faulting pc is left outside the block, so the
   precise interpreter delivers that exception with exact semantics if
   execution ever reaches it. A terminator at [pc] itself still installs
   [b], as a zero-length block validated by the terminator's pages: the run
   loop then steps that pc precisely at once instead of decoding and
   failing a build on every visit. *)
let sb_build t (b : (Isa.op, Isa.t) Tcache.block) pc =
  b.b_pc <- -1;
  let entry_terminator = ref false in
  let n = ref 0 in
  let p = ref pc in
  (* a block is validated by two generation checks, so its micro-ops may
     live on at most two distinct backing pages; [claim] registers the page
     under [addr] and fails on a third *)
  let npg = ref 0 in
  let pg1 = ref Memory.null_page and pg2 = ref Memory.null_page in
  let claim addr =
    match Memory.page_at_opt t.Isa.mem addr with
    | None -> false
    | Some pg ->
      if !npg > 0 && pg == !pg1 then true
      else if !npg > 1 && pg == !pg2 then true
      else if !npg = 0 then begin
        pg1 := pg;
        npg := 1;
        true
      end
      else if !npg = 1 then begin
        pg2 := pg;
        npg := 2;
        true
      end
      else false
  in
  (* an instruction's bytes [p, last] may straddle a page boundary *)
  let claim_op p last = claim p && (p lsr 12 = last lsr 12 || claim last) in
  (try
     while !n < Tcache.sb_max do
       (* followed targets must satisfy the same wrap guard as entry pcs *)
       if !p < 0 || !p > Isa.wrap_bound then raise Exit;
       let op = Fetch.decode t !p in
       let next = !p + Isa.length op in
       if Isa.is_terminator op then begin
         entry_terminator := !n = 0 && claim_op !p (next - 1);
         raise Exit
       end;
       if not (claim_op !p (next - 1)) then raise Exit;
       let target = Isa.followed op !p next in
       let succ = if target >= 0 then target else next in
       b.b_uops.(!n) <- Fetch.uop t !p op;
       b.b_pcs.(!n) <- !p;
       b.b_succ.(!n) <- succ;
       b.b_flags.(!n) <-
         t.Isa.cache.last_cost
         lor (if Isa.is_cf op then Tcache.flag_cf else 0)
         lor (if Isa.may_store op then Tcache.flag_st else 0);
       incr n;
       p := succ;
       if target < 0 && Isa.ends_block op then raise Exit
     done
   with
  | Exit -> ()
  | e -> ignore (Isa.decode_fault e) (* re-raises anything else *));
  if !n > 0 || !entry_terminator then begin
    if !npg = 1 then pg2 := !pg1;
    b.b_len <- !n;
    b.b_pg1 <- !pg1;
    b.b_wg1 <- Memory.page_generation !pg1;
    b.b_pg2 <- !pg2;
    b.b_wg2 <- Memory.page_generation !pg2;
    b.b_pc <- pc
  end;
  if !n > 0 then t.Isa.cache.sb_blocks <- t.Isa.cache.sb_blocks + 1;
  !n > 0

(* The block to run at block entry [pc], built on a miss; [c.empty] when
   the precise step must run instead: a remembered terminator (a
   zero-length block), a failed build, or a wild-execution miss streak. *)
let[@inline] enter t pc =
  let c = t.Isa.cache in
  let slot = Isa.slot pc in
  let b = Tcache.lookup c slot pc in
  if b != c.empty then
    if b.b_len > 0 then begin
      c.sb_hits <- c.sb_hits + 1;
      b
    end
    else c.empty
  else if c.dc_streak < Tcache.bypass_streak then begin
    let b = Tcache.victim c slot pc in
    if sb_build t b pc then b else c.empty
  end
  else c.empty

(* Run up to [max_steps] instructions, preferring translated superblock
   execution and falling back to the precise [Fetch.step] whenever translation
   cannot reproduce its observable semantics (an armed execute breakpoint at
   the block entry, poisoned address translation, a misaligned or wrapping
   pc, a terminator instruction). Returns the first event, or [Retired] when
   the budget was exhausted without one, and leaves the count [n] of cleanly
   retired instructions in [run_retired]. For [Hit_dbp]/[Stopped] the
   event-carrying instruction has retired (counters include it) but is not
   part of [n]; for [Faulted] the faulting instruction did not retire and
   the exception has been delivered exactly as [Fetch.step] would. *)
let run t ~max_steps =
  if max_steps <= 0 then invalid_arg "Cpu.run: max_steps must be positive";
  let c = t.Isa.cache in
  let retired = ref 0 in
  let fin = ref None in
  (* [sb_enabled] and the debug registers cannot change inside one [run]
     call; translation poison can, but only under the precise interpreter
     (the instructions that poison it are terminators), so the eligibility
     chain is re-evaluated after precise steps instead of at every entry *)
  let forced_static = not c.sb_enabled in
  let bp_armed = Debug_regs.exec_armed t.dr in
  let forced = ref (forced_static || Isa.poisoned t) in
  while Option.is_none !fin && !retired < max_steps do
    let pc = Isa.pc t in
    let b =
      if
        !forced
        || pc < 0
        || pc > Isa.wrap_bound  (* a block near the top of the space would wrap *)
        || (not (Isa.aligned pc))
        || (bp_armed && Debug_regs.check_exec t.dr pc)  (* [step] reports it *)
      then c.empty
      else enter t pc
    in
    if b == c.empty then begin
      (* the precise step; a terminator it runs may poison translation *)
      c.sb_fallbacks <- c.sb_fallbacks + 1;
      (* a saturated miss streak is wild execution: the ISA may retire a
         run of identical steps in closed form first ([Isa.march]), all but
         the last, which the precise step runs *)
      if (not !forced) && c.dc_streak >= Tcache.bypass_streak then begin
        let n = Isa.march t (max_steps - !retired - 1) in
        retired := !retired + n;
        c.march_steps <- c.march_steps + n
      end;
      (match Fetch.step t with
      | Step.Retired | Step.Halted -> incr retired
      | r -> fin := Some r);
      forced := forced_static || Isa.poisoned t
    end
    else begin
      (* the tight loop: no per-step dispatch, batched accounting *)
      let uops = b.b_uops and flags = b.b_flags in
      let pcs = b.b_pcs and succs = b.b_succ in
      let limit =
        let budget = max_steps - !retired in
        let limit = if b.b_len < budget then b.b_len else budget in
        if bp_armed then Tcache.cut t.dr b limit 1 else limit
      in
      (match t.pending_hit with Some _ -> t.pending_hit <- None | None -> ());
      t.stopped <- false;
      (* block-invariant: nothing inside a block writes the debug
         registers, and only a data access sets [pending_hit], so when no
         data watch is armed it stays [None] and the per-op check is
         skipped *)
      let watched = Debug_regs.data_armed t.dr in
      let i = ref 0 in
      let cyc = ref 0 in
      let exit_block = ref false in
      (* the handler is installed once for the whole block, not per
         micro-op; [i] still indexes the faulting micro-op there because it
         is only advanced after a clean return *)
      (try
         while (not !exit_block) && !i < limit do
           let k = !i in
           let fl = Array.unsafe_get flags k in
           (match Array.unsafe_get uops k with
           | Tcache.Fn f -> f t
           | Tcache.Exec op ->
             let mpc = Array.unsafe_get pcs k in
             (* [exec]'s control flow computes its target from the pre-set
                fall-through pc; no other micro-op reads it, so the write
                is elided for them and every block exit re-establishes the
                pc *)
             if fl land Tcache.flag_cf <> 0 then
               Isa.set_pc t (mpc + Isa.length op);
             Isa.exec t mpc op);
           cyc := !cyc + (fl land Tcache.cost_mask);
           incr i;
           (* the [step] epilogue's observation order: stop sentinel first,
              then watchpoints; an off-predicted-path redirect merely ends
              the block with the pc already exact, and a store into the
              block's own pages ends it before a stale micro-op runs. Only
              control-flow micro-ops can raise the stop sentinel or
              redirect, and they leave the pc exact. *)
           if fl land Tcache.flag_cf <> 0 then begin
             if t.stopped then begin
               fin := Some Step.Stopped;
               exit_block := true
             end
             else begin
               (if watched then
                  match t.pending_hit with
                  | Some h ->
                    fin := Some (Step.Hit_dbp h);
                    exit_block := true
                  | None -> ());
               if not !exit_block then
                 if Isa.pc t <> Array.unsafe_get succs k then exit_block := true
                 else if fl land Tcache.flag_st <> 0 && not (Tcache.fresh b) then
                   exit_block := true (* a call pushed into its block *)
             end
           end
           else begin
             (if watched then
                match t.pending_hit with
                | Some h ->
                  Isa.set_pc t (Array.unsafe_get succs k);
                  fin := Some (Step.Hit_dbp h);
                  exit_block := true
                | None -> ());
             if
               (not !exit_block)
               && fl land Tcache.flag_st <> 0
               && not (Tcache.fresh b)
             then begin
               Isa.set_pc t (Array.unsafe_get succs k);
               exit_block := true (* a store into the block itself *)
             end
           end
         done
       with e ->
         (* the faulting micro-op does not retire; the completed prefix is
            charged below *)
         let f = Isa.fault_of_exn e in
         exit_block := true;
         fin := Some (Isa.deliver_fault t (Array.unsafe_get pcs !i) f));
      if (not !exit_block) && !i > 0 then
        (* natural end: the elided per-op pc writes collapse into one store
           of the last micro-op's successor *)
        Isa.set_pc t (Array.unsafe_get succs (!i - 1));
      (* batched accounting for the retired prefix *)
      t.counters.Counters.cycles <- t.counters.Counters.cycles + !cyc;
      t.counters.Counters.instructions <- t.counters.Counters.instructions + !i;
      c.sb_insns <- c.sb_insns + !i;
      match !fin with
      | Some (Step.Hit_dbp _ | Step.Stopped) ->
        (* the event-carrying micro-op retired (counted above) but is
           reported as the event, not as a clean step *)
        retired := !retired + !i - 1;
        c.sb_fallbacks <- c.sb_fallbacks + 1
      | Some _ ->
        retired := !retired + !i;
        c.sb_fallbacks <- c.sb_fallbacks + 1
      | None -> retired := !retired + !i
    end
  done;
  c.run_retired <- !retired;
  match !fin with None -> Step.Retired | Some r -> r

(* Pre-warm the decode and superblock caches from the kernel image's function
   ranges, so the first trial does not pay the cold-miss tail on paths the
   boot never executed. Touches only caches and diagnostics — architectural
   state, counters and snapshots are unaffected. *)
let prewarm t funcs =
  let c = t.Isa.cache in
  if c.dc_enabled then begin
    c.warming <- true;
    List.iter
      (fun (addr, size) ->
        let fin = addr + size in
        (* decode pass: walk the range, collecting block entry points
           (branch targets and fall-throughs of block enders) *)
        let entries = ref [ addr ] in
        let p = ref addr in
        while !p < fin do
          c.dc_streak <- 0;
          match Fetch.decode t !p with
          | op ->
            let next = !p + Isa.length op in
            let target = Isa.target op !p next in
            if target >= 0 then entries := target :: !entries;
            if Isa.ends_block op || Isa.is_terminator op then
              entries := next :: !entries;
            p := next
          | exception e ->
            ignore (Isa.decode_fault e) (* re-raises anything else *);
            p := Isa.resync !p
        done;
        if c.sb_enabled then
          List.iter
            (fun e ->
              if e >= addr && e < fin && Isa.aligned e then begin
                let slot = Isa.slot e in
                c.dc_streak <- 0;
                if
                  Tcache.lookup c slot e == c.empty
                  && sb_build t (Tcache.victim c slot e) e
                then c.prewarmed <- c.prewarmed + 1
              end)
            !entries)
      funcs;
    c.warming <- false
  end

let cached_block_len t pc =
  let c = t.Isa.cache in
  let b = Tcache.lookup c (Isa.slot pc) pc in
  if b == c.empty then -1 else b.b_len
