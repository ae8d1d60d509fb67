(** Recorded warp-event streams for tile-class memoization.

    A {!stream} is the complete event sequence of one representative
    block of a hybrid launch, with the compute rows' byte addresses
    tagged by the array region they fall in. [Sim.replay_stream] replays
    it for another block of the same class by adding one byte delta to
    every global address and recomputing coalescing/cache behaviour from
    the translated addresses — nothing cache-related is memoized, so the
    replay is exact at any alignment. Shared-memory events carry only
    their transaction counts: shared addresses are tile-relative
    (identical across a class) or shifted uniformly, and a uniform shift
    rotates the bank assignment without changing the conflict count.

    Streams are recorded by [Sim.record_begin]/[record_end] and consumed
    by [Sim.replay_stream]; the schemes' tile-class launcher
    ([Classsim]) owns the per-class memo table. *)

type ev =
  | Gload_run of { addr : int; n : int }
      (** coalesced load of [n] consecutive words at byte [addr] *)
  | Gstore_run of { addr : int; n : int; serial : bool }
  | Gload_lanes of { addrs : int array }
      (** ascending per-lane byte addresses (gapped copy-in rows) *)
  | Gstore_lanes of { addrs : int array; serial : bool }
  | Shared_load of { transactions : int }
  | Shared_store of { transactions : int }
  | Flops of { active : int; per_lane : int }
  | Sync
  | Compute of {
      stmt : int;
      tstep : int;
      wregion : int;
      waddr : int;
      sregions : int array;
      srcs : int array;
      n : int;
    }

type stream

val create : unit -> stream
val push : stream -> ev -> unit
val length : stream -> int

val mem_events : stream -> int
(** Memory events only (the [sim.addr_streams_replayed] unit). *)

val iter : stream -> f:(ev -> unit) -> unit
