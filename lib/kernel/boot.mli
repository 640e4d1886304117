(** Boot loader: compile + link the kernel for an architecture, build the
    machine, fake the initial task stacks and run the boot sequence until the
    kernel is idling (the paper's "reboot the target machine" step). *)

val stop_addr : int
(** Sentinel return address recognised by both CPUs. *)

type variant = {
  v_mode : Ferrite_kir.Layout.mode option;
      (** override the struct/data layout (ablation: packed G4 / widened P4) *)
  v_promote : int option;  (** CISC register-promotion budget (ablation) *)
  v_g4_wrapper : bool;  (** compile the G4 stack-range wrapper (ablation) *)
  v_p4_wrapper : bool;
      (** add the stack check the paper's §7 proposes for the P4 (extension;
          off reproduces the stock platform) *)
  v_assertions : bool;
      (** hardened build: assertions on critical data structures, the
          paper's §6 latency-reduction suggestion (off reproduces the stock
          kernel) *)
}

val standard : variant

val build_image : ?variant:variant -> Ferrite_kir.Image.arch -> Ferrite_kir.Image.t
(** Compile and link the kernel program for one architecture (pure; the
    result can be reused across boots). *)

val boot : ?image:Ferrite_kir.Image.t -> Ferrite_kir.Image.arch -> System.t
(** Construct a fresh machine from a (possibly cached) image, initialise task
    stacks and CPU state, and execute the boot sequence until the first timer
    tick. Raises [Failure] if the kernel does not come up — which would be a
    bug in Ferrite itself, not an experiment outcome. *)

val boots : unit -> int
(** How many times {!boot} has run in this process (tests use it to show
    that a suite boots each kernel once). A count, never a cache. *)

val of_snapshot : image:Ferrite_kir.Image.t -> System.snapshot -> System.t
(** A new machine in the state a snapshot of a booted [image] captured
    ({!System.of_snapshot}), without running boot code: the way every
    machine but a kernel's first is made. Not counted by {!boots}. *)

val boot_steps_budget : int
