(** Tile-class launches: run a kernel whose blocks fall into classes
    that differ only by a translation along s0, executing as few blocks
    live as the engine allows.

    A scheme supplies, per block, its class key (equal keys ⇒ identical
    event streams up to the s0 translation), its s0 origin and its live
    body. Classsim owns everything else: the region table over the
    program's arrays, the choice of launch mode, the canonical-order
    classification, the representatives' recordings, member replay and
    the analytic epilogue. The mode is a function of the run, never an
    option:

    - {b live} — every block runs its body: per-lane execution (not
      {!Common.batched}: the [Ref] oracle or the sanitizer, both of which
      need per-lane events), or arrays whose s0 strides differ (a class
      member's translation is then not one word offset);
    - {b memo} — the first block of each class in
      {!Hextile_gpusim.Sim.block_order} (its representative) runs live
      and records its stream; every other member replays it
      ({!Hextile_gpusim.Sim.replay_stream} for the memory events,
      {!Common.exec_rows} for the compute rows) at its word offset
      [Δs00·stride0];
    - {b analytic} — requested by the scheme and possible when the
      shared stride is a whole number of cache lines: members of
      interior classes, and every block of a class whose signature an
      earlier launch recorded, are derived in the launch epilogue
      (counters by population scaling, DRAM by line-run replay through
      the shared L2, grids by bulk compute-row blits). See
      {!Hextile_gpusim.Analytic}.

    Results are bit-identical at every jobs value in every mode. *)

type analytic = {
  signature : int array -> int array;
      (** cross-launch signature of a class key: classes of any launch
          with equal signatures record streams that are pure
          s0-translations of each other *)
  interior : int array -> bool;
      (** the class has no s0 clipping: its members are derived *)
  model : int array -> int * int;
      (** closed-form (compute lanes, barriers) of a class key; a fresh
          recording that disagrees raises [Failure] *)
}
(** What the analytic mode needs from the scheme beyond the block body. *)

type t
(** Per-run state: region table, mode and the cross-launch class cache. *)

val create : Common.ctx -> analytic:analytic option -> t
(** Call after any address-map registration (the region bases are read
    here). [analytic] requests the analytic mode; without it, or when
    the stride is not line-aligned, memo runs instead. *)

val launch :
  ?pool:Hextile_par.Par.pool ->
  t ->
  name:string ->
  blocks:int ->
  threads:int ->
  key:(int -> int array) ->
  s00:(int -> int) ->
  exec:(int -> unit) ->
  unit
(** One {!Hextile_gpusim.Sim.launch} of [blocks] blocks: [key b],
    [s00 b] and [exec b] are block [b]'s class key, s0 origin and live
    body. *)
