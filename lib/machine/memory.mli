(** Byte-addressable paged physical/virtual memory.

    Both simulated CPUs run with a flat kernel-virtual address space (the
    miniature kernel lives above [0xC0000000], as Linux 2.4 did).  Memory is
    organised in 4 KiB pages; accessing an unmapped page or violating a page's
    permissions raises {!Fault}, which the CPUs translate into their
    architectural exceptions (page fault / DSI).

    Accessor naming: [load*] checks read permission, [store*] checks write
    permission, [fetch*] checks execute permission; [peek*]/[poke*] bypass
    permissions entirely (used by the loader, the error injector, and crash
    handlers — corresponding to the paper's kernel-embedded injector which can
    touch any kernel memory).

    Hot paths are cached (see DESIGN.md "Cache hierarchy"): a per-class
    software TLB fronts the page table, word-wide accessors hit a single page
    when the access does not cross a boundary, and {!restore} only rewinds
    pages touched since the last restore. All of it is observationally
    equivalent to the uncached implementation, which remains reachable via
    {!set_fast_paths_default} for differential testing. *)

type access = Read | Write | Execute

type fault_kind =
  | Unmapped  (** no page mapped at the address *)
  | Protection  (** page mapped but the access kind is not permitted *)

exception Fault of { addr : int; access : access; kind : fault_kind }

type perm = { readable : bool; writable : bool; executable : bool }

val perm_rw : perm
val perm_ro : perm
val perm_rx : perm
val perm_rwx : perm

val page_size : int
(** 4096. *)

type t

val create : unit -> t
(** Fresh, fully unmapped memory. Captures the current fast-path default
    (see {!set_fast_paths_default}). *)

val set_fast_paths_default : bool -> unit
(** Enable/disable the TLB, word-wide accessors and dirty-page restore for
    memories created {e after} this call ([true] initially). CPUs also consult
    the owning memory's flag to gate their decode caches, so flipping this to
    [false] yields the plain uncached interpreter — the reference
    implementation for the differential tests. *)

val fast_paths : t -> bool
(** Whether this memory was created with fast paths enabled. *)

val matches_defaults : t -> bool
(** Whether this memory was created under the current fast-path and
    superblock defaults, i.e. equals what {!create} would make now. *)

val set_superblocks_default : bool -> unit
(** Enable/disable superblock translation for CPUs attached to memories
    created {e after} this call ([true] initially). Orthogonal to
    {!set_fast_paths_default}, so the differential tests can exercise every
    combination of {decode caches, superblocks}. *)

val superblocks : t -> bool
(** Whether this memory was created with superblock translation enabled. *)

val map : t -> addr:int -> size:int -> perm:perm -> unit
(** [map t ~addr ~size ~perm] maps (and zeroes) all pages overlapping
    [\[addr, addr+size)]. Remapping an existing page only updates its
    permissions, preserving contents. *)

val unmap : t -> addr:int -> size:int -> unit
(** Remove all pages overlapping the range. *)

val set_auto_map : t -> lo:int -> hi:int -> perm:perm -> unit
(** Configure a direct-mapped window: CPU accesses to unmapped pages inside
    [\[lo, hi)] materialise them zero-filled with [perm] instead of faulting —
    the kernel's "lowmem" linear mapping. Wild-but-plausible kernel pointers
    therefore read zeroes and absorb writes, letting corruption propagate as
    it does on real hardware (the paper's Figure 7). [peek]/[poke] are not
    affected. *)

val set_perm : t -> addr:int -> size:int -> perm:perm -> unit
(** Change permissions of already-mapped pages; raises [Invalid_argument] if
    any page in the range is unmapped. The whole range is validated before
    any page is mutated, so a failure changes nothing. *)

val is_mapped : t -> int -> bool

val load8 : t -> int -> int
val load16_le : t -> int -> int
val load32_le : t -> int -> int
val load16_be : t -> int -> int
val load32_be : t -> int -> int

val store8 : t -> int -> int -> unit
val store16_le : t -> int -> int -> unit
val store32_le : t -> int -> int -> unit
val store16_be : t -> int -> int -> unit
val store32_be : t -> int -> int -> unit

val fetch8 : t -> int -> int
val fetch32_be : t -> int -> int

val peek8 : t -> int -> int
val peek32_le : t -> int -> int
val peek32_be : t -> int -> int
val poke8 : t -> int -> int -> unit
val poke32_le : t -> int -> int -> unit
val poke32_be : t -> int -> int -> unit

val flip_bit : t -> addr:int -> bit:int -> unit
(** [flip_bit t ~addr ~bit] toggles bit [bit] (0–7) of the byte at [addr],
    bypassing permissions. This is the injector's primitive. *)

val blit_string : t -> addr:int -> string -> unit
(** Copy raw bytes into memory (loader primitive, bypasses permissions).
    Equivalent to a {!poke8} per byte, lowest address first: an unmapped
    page raises {!Fault} at its first byte, after the earlier pages are
    written. *)

val snapshot_page_count : t -> int
(** Number of mapped pages (used by tests and the campaign "reboot" audit). *)

(** {2 Page handles (translation-cache support)}

    The CPUs' decode caches and superblock tables validate entries against
    the generation of the page object(s) the instruction bytes came from.
    A generation names a page object's contents: any mutation — store, poke,
    bit flip, permission change, unmap, or a restore that drops the page —
    gives the page a fresh value from its memory's clock, and a restore from
    a snapshot of the same memory gives each rewound page back the
    generation the snapshot recorded, with the recorded bytes and
    permissions. Hence the contract: a given page object never carries the
    same generation with different bytes or permissions. A cached decode of
    stale bytes can never hit, and one built from the snapshot's bytes
    validates again after the per-trial restore. *)

type page
(** A live page object. Identity is only meaningful together with
    {!page_generation}: the same address can be backed by a different page
    object after unmap/map or restore. *)

val null_page : page
(** A sentinel no real lookup returns and whose generation matches nothing;
    use it to initialise cache entries. *)

val page_at_opt : t -> int -> page option
(** The page currently backing [addr], if mapped. Never demand-maps and never
    faults. *)

val page_generation : page -> int
(** The generation naming this page object's current bytes and permissions
    (see above). Not monotonic: a restore can rewind it. Never [-1] or
    [min_int]. *)

val page_dirty : page -> bool
(** Whether the page has been mutated since its memory's last restore, so
    the next restore will rewind it. A page never restored counts as dirty;
    so does {!null_page}. *)

val page_perm : page -> perm
(** The page object's current permissions. *)

val zero_run : page -> int -> int -> int
(** [zero_run p off len] counts the zero bytes of [p] from offset [off] up
    to the first non-zero byte, the page end or [len] bytes, whichever
    comes first; 0 for {!null_page}. Reads the bytes as they are: no
    permission check, no TLB, no counter. *)

val tlb_page : t -> access -> int -> page
(** [tlb_page t access addr] is the page the software TLB for [access]
    holds for [addr], or {!null_page} when it holds none: no page-table
    lookup, no demand-map, no fault and no counter. A page it returns is
    mapped and permits [access] (every map, unmap, permission change and
    restore flushes the TLBs); {!null_page} tells nothing. With the fast
    paths off the TLBs stay empty. *)

val cache_stats : t -> Cache_stats.t
(** Monotonic fast-path counters for this memory (TLB hits/misses, restore
    activity; decode fields are zero — the CPUs own those). Not part of
    snapshots. *)

type snapshot
(** An immutable copy of the full memory state (pages, permissions, and the
    auto-map window). *)

val snapshot : t -> snapshot
(** Capture the current state. The snapshot does not alias [t]: later writes
    to [t] do not affect it. *)

val restore : t -> snapshot -> unit
(** Roll [t] back to exactly the captured state: pages mapped since the
    snapshot are unmapped, contents and permissions are rewound. After
    [restore t s], [t] is observationally identical to the memory at the time
    [s] was taken — the primitive behind the executor's cheap "logical
    reboot". Restoring to the same snapshot repeatedly (the per-trial reboot
    pattern) only rewinds pages touched since the previous restore. Each
    rewound page takes back the generation {!snapshot} recorded for it when
    [s] was taken from [t] or [t] was built from [s] ({!of_snapshot}), and a
    fresh one otherwise. *)

val of_snapshot : snapshot -> t
(** A fresh memory in exactly the captured state, under the current
    defaults (like {!create}). It adopts [s]'s generations: its clock starts
    past every value [s] recorded, so each page keeps its recorded
    generation, and every later {!restore} to [s] rewinds pages to them, as
    on the memory [s] was taken from. Translations built from [s]'s bytes
    therefore validate again after the per-trial restore. *)
