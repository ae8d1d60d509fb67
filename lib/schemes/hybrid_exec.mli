(** Execution of the hybrid hexagonal/classical schedule on the GPU
    simulator, following the paper's code generation (Section 4): a host
    loop over time tiles [T] launching one kernel per phase; thread blocks
    indexed by [S0]; sequential in-kernel loops over the classical tiles
    [S1..Sn] and the intra-tile time [t']; a barrier after every time
    step.

    The shared-memory strategy knobs reproduce the optimization ladder of
    Table 4:

    - (a) [no_shared] — all accesses to global memory;
    - (b) [shared] — copy-in / compute / copy-out phases on the
      rectangular box over-approximation;
    - (c) [+ interleave] — results stored to global memory as they are
      computed, no separate copy-out;
    - (d) [+ align] — arrays translated so tile loads are cache-line
      aligned (Section 4.2.3);
    - (e) [+ static reuse] — values reused between consecutive classical
      tiles via a static global→shared mapping (no copy, but bank-conflict
      replays — Table 5 measures 1.8 loads/request);
    - (f) [+ dynamic reuse] — reused values moved shared→shared between
      tiles (an extra copy phase, conflict-free accesses). *)

open Hextile_ir
open Hextile_gpusim

type reuse = No_reuse | Static | Dynamic

type strategy = {
  use_shared : bool;
  interleave : bool;
  align : bool;
  reuse : reuse;
}

val strategy_of_step : char -> strategy
(** ['a'] .. ['f'] — the Table 4 configurations. *)

val best_strategy : strategy
(** Configuration (f), the paper's best. *)

type config = {
  h : int;
  w : int array;
  threads : int;
  strategy : strategy;
  register_tile : bool;
      (** keep sweep-reusable values in registers across the unrolled
          point loop, eliminating their shared loads (the conclusion's
          "register tiling" direction; cf. the Figure 2 core, which keeps
          2 of jacobi's 5 values in flight) *)
}

val default_config : Stencil.t -> config
(** Paper-style sizes. Hexagon height h is 3 in 1D and 2D and 1 in 3D,
    each rounded up so that h+1 is a multiple of the statement count;
    widths are w0=16 (1D), w=(4,32) (2D) and w=(4,6,32) (3D, 32 on any
    further dimension); 64, 256 and 192 threads. The 3D default is not
    Table 4's h=2, w=(7,10,32) with 320 threads: that tile's
    rectangular-box shared allocation exceeds the device limit, so it is
    requested through [config] instead. *)

val run :
  ?pool:Hextile_par.Par.pool ->
  ?engine:Common.engine ->
  ?analytic:bool ->
  ?name:string ->
  ?config:config ->
  Stencil.t ->
  (string -> int) ->
  Device.t ->
  Common.result
(** [pool] parallelizes each launch's blocks across the pool's domains
    (bit-identical results for any jobs value; see {!Sim.launch}).

    [analytic] (default [false]) enables the hierarchical simulation
    mode: each launch instance-executes exactly one representative block
    per interior tile class, derives every other interior block's
    counters by population scaling ({!Hextile_gpusim.Analytic}), models
    their DRAM traffic by compressed-trace L2 replay, and reproduces
    their grid writes with a compute-only tape replay — falling back to
    full instance execution for boundary-clipped classes. Counters are
    bit-identical to the exact simulator except the two DRAM fields,
    whose relative error is bounded by
    {!Hextile_gpusim.Analytic.dram_error_bound}. The launch modes are
    {!Classsim}'s: analytic degrades to exact memoized replay when the
    shared s0 stride is not a whole number of cache lines (the condition
    under which class translation is a cache bijection), and both run
    every block live when the arrays' s0 strides differ or execution
    is per-lane (not {!Common.batched}); [Common.result.blocks_analytic]
    reports how many blocks were scaled. Results remain bit-identical
    across [--jobs] values. *)
