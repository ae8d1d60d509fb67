(** Shared infrastructure for the scheme executors: execution context,
    warp-chunked memory phases, per-(array, slot) boxes and results. *)

open Hextile_ir
open Hextile_gpusim

type engine = Ref | Tape
(** Execution engine for statement rows. [Tape], the only engine any
    user-facing path runs, accounts each row through [Sim]'s
    allocation-free batched events and evaluates it with one fused
    {!Hextile_gpusim.Tape} plan call. [Ref] is the original per-lane
    closure interpreter, kept as an oracle: the two produce
    bit-identical grids and counters, which [test/test_tape.ml] and
    [bench simcmp] check by selecting [Ref] through [?engine] on
    {!make_ctx} and the scheme [run]s. The
    {!Hextile_gpusim.Sanitize} sanitizer forces the per-lane path (it
    needs per-lane thread identities); see {!batched}. *)

type compiled
(** Per-statement compiled evaluator (closure "JIT" over the grids, plus
    the statement's register tape when row batching is sound). *)

type ctx = {
  sim : Sim.t;
  prog : Stencil.t;
  env : string -> int;
  grids : (string, Grid.t) Hashtbl.t;
  k : int;  (** statement count *)
  dims : int;  (** spatial dimensions *)
  steps : int;
  stmts : Stencil.stmt array;
  lo : int array array;  (** per statement, inclusive domain bounds *)
  hi : int array array;
  updates : int Atomic.t;
      (** statement instances executed (atomic: blocks of one launch may
          run on different domains; the sum is order-independent) *)
  compiled : (string, compiled) Hashtbl.t;
  engine : engine;
}

val make_ctx : ?engine:engine -> Stencil.t -> (string -> int) -> Device.t -> ctx
(** [engine] defaults to {!Tape}; [Ref] selects the per-lane oracle. *)

val batched : ctx -> bool
(** The one test that picks batched against per-lane execution: the
    [Tape] engine with the sanitizer off. It decides {!exec_stmt_row},
    the copy phases ({!load_box_rows}, {!shared_copy_rows},
    {!store_cells}) and [Classsim]'s launch mode. *)

type result = {
  scheme : string;
  device : Device.t;
  counters : Counters.t;
  kernel_time : float;
  transfer_time : float;
  updates : int;
  grids : (string, Grid.t) Hashtbl.t;
  blocks : int;  (** total blocks across all launches *)
  blocks_memoized : int;
      (** blocks retired by tile-class stream replay instead of live
          execution (hybrid scheme, [Tape] engine only) *)
  blocks_analytic : int;
      (** blocks retired by analytic class scaling (hybrid scheme,
          [--analytic] mode only): counters derived from the class
          representative's delta × population, grids from a compute-only
          tape replay *)
  classes : int;
      (** tile classes enumerated by the analytic mode, summed over
          launches (0 outside analytic mode) *)
  blit_rows : int;
      (** recorded compute rows retired through multi-row coalesced
          (bulk-blit) runs by memoized members and the analytic
          epilogue's grid reconstruction; deterministic at every jobs
          value *)
  replay_lines : int;
      (** cache lines probed by the batched DRAM line replay;
          deterministic at every jobs value *)
  epilogue_ms : float;
      (** wall time spent in analytic launch epilogues (derive + DRAM
          replay + grid blits), main domain only — nondeterministic,
          never part of compared artifacts *)
  derive_ms : float;
      (** epilogue stage breakdown: class prep + counter derivation
          (parallel); same caveats as [epilogue_ms] *)
  dram_ms : float;  (** …sequential batched DRAM line replay *)
  grids_ms : float;  (** …parallel grid blits *)
}

val finish : ctx -> scheme:string -> result

val total_time : result -> float
val gstencils_per_s : result -> float
val gflops : result -> flops_per_update:float -> float

(** {2 Regions} *)

type box = { blo : int array; bhi : int array }
(** Inclusive spatial bounds; empty if any [blo > bhi]. *)

val box_is_empty : box -> bool
val box_count : box -> int

val box_inter : box -> box -> box

(** {2 Per-block (array, slot) boxes} *)

val store_key : Stencil.t -> string -> int
(** Key of an array's slot 0. Keys number the (array, storage slot)
    pairs in declaration order: an array's slots follow the slots of
    every array declared before it. *)

val nkeys : Stencil.t -> int
(** Number of keys: every storage slot of every array. *)

val flat : Grid.t -> slot:int -> int array -> int
(** Flat word index of a spatial point in storage slot [slot]. *)

module Layout : sig
  (** One box per (array, storage slot) key, the only per-block
      (array, slot) table the executors keep. Shared memory packs the
      non-empty boxes row-major at consecutive word bases in key order,
      and {!iter} walks them in that order — declaration order, slots
      ascending — so no copy-in, copy-out or shared address depends on
      array names. Addresses are word indices (for the bank-conflict
      model). *)

  type t

  val create : ctx -> t
  (** Every box empty. *)

  val key : ctx -> Stencil.access -> tstep:int -> int
  (** Key of the slot an access touches at [tstep]. *)

  val add : t -> key:int -> box -> unit
  (** Grow the box at [key] to cover a box; no-op if it is empty. *)

  val cover : t -> ctx -> Stencil.access -> tstep:int -> box -> unit
  (** Grow the box the access touches at [tstep] by a region of
      instances: the region shifted by the access's offsets, clipped to
      the grid. *)

  val find : t -> key:int -> box option
  (** [None] while the box is empty. *)

  val addr : t -> key:int -> int array -> int
  (** Word address of a spatial point (clipped into the box). Returns 0
      for empty boxes. *)

  val words : t -> int

  val iter :
    t -> ctx -> f:(grid:Grid.t -> slot:int -> key:int -> box -> unit) -> unit
  (** Non-empty boxes in key order. *)

  val access_addr :
    t -> ctx -> tstep:int -> Stencil.access -> point:int array -> int
  (** Word address of an access at [tstep] from instance [point]: the
      [shared_addr] of {!exec_stmt_row}. *)
end

(** {2 Block-local store} *)

val snapshot : ctx -> (string, float array) Hashtbl.t
(** Copies of every grid's data, by array name: the pre-launch state the
    blocks of an overlapped launch read. *)

module Store : sig
  (** What one block of an overlapped scheme sees: the launch snapshot
      overlaid with the block's own writes, held as one dense row-major
      box per (array, slot) the block touches ({!Layout.cover}) plus a
      written-cell mark — the functional counterpart of the shared-memory
      copy-in the executors account. Buffers are per domain, sized to the
      largest box seen and reused across blocks, launches and runs, so a
      block allocates nothing per cell. *)

  type t

  val load :
    ?write_through:bool ->
    ctx ->
    snap:(string, float array) Hashtbl.t ->
    (Stencil.stmt * int * box) list ->
    t
  (** The calling domain's store, set up for a block that computes each
      [(stmt, tstep, region)]: its boxes cover every access of those
      instances (write and reads, shifted by their offsets, clipped to
      the grid) — {!exec_stmt_row} rejects any access outside them —
      loaded from the snapshot, with no cell marked written. With
      [write_through] (default false) every write also goes to the
      context grids. *)

  val copy_out : t -> ctx -> within:box -> unit
  (** Write every cell the block wrote inside [within] back to the
      context grids and account the stores ({!store_cells}, via shared
      memory): arrays in declaration order, each array's cells in
      ascending flat order across its slots. *)
end

(** {2 Warp-level phases} *)

val exec_stmt_row :
  ctx ->
  stmt:Stencil.stmt ->
  tstep:int ->
  point:int array ->
  x0:int ->
  n:int ->
  ?store:Store.t ->
  ?count:bool ->
  ?loads_subset:Stencil.access list ->
  global_reads:bool ->
  shared_replay:int ->
  interleave_store:bool ->
  use_shared:bool ->
  shared_addr:(Stencil.access -> point:int array -> int) ->
  unit ->
  unit
(** Execute the instances of one statement at [tstep] for the [n]
    contiguous lanes [x0 .. x0 + n - 1] of the innermost dimension of
    [point] (other coordinates fixed),
    chunked into warps: account one load per distinct read (global or
    shared per [global_reads]), the statement's flops, and the store
    (shared when [use_shared], plus global when [interleave_store] or no
    shared memory is used); then perform the functional update. Without
    [store] the update reads and writes the context grids; with it, it
    reads and writes the block store (box-relative tape rows when
    {!batched}, otherwise and for aliasing statements lane by lane);
    [count]
    (default true) controls whether the instances count toward
    [ctx.updates]; [loads_subset] restricts which reads are *accounted*
    as loads (register tiling keeps the rest in registers across the
    unrolled sweep — functional execution is unaffected). *)

val load_box_rows :
  ctx ->
  grid:Grid.t ->
  slot:int ->
  box:box ->
  skip_x:(int array -> (int * int) option) ->
  shared_addr:(int array -> int) ->
  unit
(** Copy-in phase: global loads + shared stores over all rows of [box]
    (x = innermost dim varies). [skip_x row] gives an x-interval already
    present in shared memory (reuse) to exclude. Pure accounting. *)

val load_layout : ctx -> Layout.t -> unit
(** {!load_box_rows} over every box of a layout, without reuse. *)

val shared_copy_rows : ctx -> box:box -> shared_addr:(int array -> int) -> unit
(** Dynamic-reuse phase: shared-to-shared movement of a region. *)

val store_cells : ctx -> grid:Grid.t -> cells:int list -> via_shared:bool -> unit
(** Copy-out phase: store the given flat cell indices (already grouped in
    ascending order), as warps of 32; [via_shared] adds the shared-memory
    read feeding each store. *)

val iter_box_rows : box -> f:(int array -> unit) -> unit
(** Iterate over rows: all coordinate prefixes; the callback receives the
    full point with x set to [blo] of the innermost dim. *)

val exec_tape_row :
  ctx -> stmt_idx:int -> wflat:int -> src_flats:int array -> n:int -> unit
(** Oracle: the per-row reference that [test/test_blit.ml] checks
    {!compile_rows}/{!exec_rows} against. Runs statement [stmt_idx]'s
    tape over [n] lanes with the given per-source flat word bases (tape
    register order) writing from flat word [wflat], counting the
    instances toward [ctx.updates]. Raises [Invalid_argument] if the
    statement has no tape. *)

type crows
(** Pre-resolved compute rows of one tile class: the tile-class
    launcher ([Classsim]) compiles a representative's recorded
    [Compute] events once — coalescing adjacent same-statement
    same-tstep rows whose write and source bases continue each other
    exactly into long runs — and replays every memoized or analytically
    derived class member as bulk fused-plan ([Tape.exec_plan]) calls at
    a word offset (one scratch fetch and one updates-atomic per block).
    Rows with gapped or non-ascending store patterns (e.g. clipped
    boundary rows) stay single-row runs: the exact per-row fallback. *)

val compile_rows : ctx -> (int * int * int * int array * int) list -> crows
(** [(stmt_idx, tstep, wflat, src_flats, n)] per row. [tstep] is the
    row's time-step index (rows of different tsteps may be
    data-dependent and are never coalesced; rows are re-sorted into the
    dependency-safe ascending (tstep, statement, write) order
    internally, so any input order yields the same runs). Takes
    ownership of the [src_flats] arrays. Raises [Invalid_argument] if a
    statement has no tape (recorded streams only contain [Compute]
    events for tape-executed rows). *)

val exec_rows : ctx -> crows -> off:int -> unit
(** Run every row with [off] added to all flat word bases (write and
    sources), counting the instances toward [ctx.updates] and
    [sim.tape_instrs], and the rows retired through multi-row coalesced
    runs toward [sim.blit_rows] / [sim.analytic_blit_rows]. The caller
    guarantees the translated rows are in bounds — true for class
    members, whose exact execution touches the same cells. Grids,
    [ctx.updates] and [sim.tape_instrs] are bit-identical to replaying
    each recorded row through {!exec_tape_row}. *)

val points : crows -> int
(** Statement instances one {!exec_rows} call executes (Σ row lanes). *)

val rows_stats : crows -> int * int * int
(** [(runs, recorded_rows, blit_rows)] of a compiled class — run-shape
    introspection for tests. *)

