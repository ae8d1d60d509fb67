(** The daemon's explicit cross-request cache context.

    One {!t} lives for the daemon's lifetime (tests build private
    short-lived ones). The context owns an entry table addressed by the
    canonical structural hash of the frontend IR ({!Shash}); each entry
    carries publish-once sub-caches ({!Hextile_par.Oncemap}) for the
    per-program artifacts:

    - {b tile-size choices}, keyed by (write-offsets, canonical
      environment) — renaming-invariant, so alpha-equivalent requests
      share one search;
    - {b run results} and {b compile results}, keyed by the full
      original request (program included) — simulated grid contents are
      seeded from array names and generated code embeds names, so these
      are {e not} renaming-invariant and the full key is part of every
      lookup.

    Correctness never depends on the cache: a structural-hash collision
    (hash hit, canonical forms differ under full-key verification) is
    counted and the request computed uncached; a full entry table
    likewise degrades to uncached computation. The global per-process
    caches (dependence analysis, FM projections, compiled tapes) sit
    below this layer and need no management here.

    Thread safety: all tables are lock-free publish-once maps and all
    counters are atomics, so lookups may run concurrently from pool
    worker domains. *)

open Hextile_ir

type entry
(** Per-canonical-program cache cell. *)

type t

val create : ?hash_bits:int -> ?bits:int -> unit -> t
(** [hash_bits] (default 64, clamped to [1,64]) truncates the structural
    hash used to address the entry table — tests set it low to force
    collisions deterministically. [bits] sizes the entry table
    ([2^bits] slots, default 10). *)

val lookup : t -> Stencil.t -> (entry option * (string * string) list)
(** The entry for this program (created on first sight), plus the
    parameter renaming for building canonical keys. [None] when the
    entry table is full or the truncated hash collides with a
    structurally different program — callers compute uncached. *)

val tilesize :
  t ->
  entry option ->
  prog:Stencil.t ->
  renaming:(string * string) list ->
  env:(string * int) list ->
  (unit -> Hextile_tiling.Tile_size.choice option * Hextile_tiling.Tile_size.report) ->
  Hextile_tiling.Tile_size.choice option * Hextile_tiling.Tile_size.report

val run :
  t ->
  entry option ->
  key:
    (Stencil.t * (string * int) list * string * string * bool) ->
  (unit -> Hextile_obs.Json.t) ->
  Hextile_obs.Json.t
(** [key] is (program, env, device, scheme, analytic); the value
    is the full deterministic response payload. *)

val compile :
  t ->
  entry option ->
  key:(Stencil.t * int option * int list option * (string * int) list) ->
  (unit -> Hextile_obs.Json.t) ->
  Hextile_obs.Json.t
(** [key] is (program, h override, w override, env). *)

type stats = {
  entry_hits : int;
  entry_misses : int;
  collisions : int;  (** truncated-hash hits whose canonical forms differ *)
  tilesize_hits : int;
  tilesize_misses : int;
  run_hits : int;
  run_misses : int;
  compile_hits : int;
  compile_misses : int;
}

val stats : t -> stats
val stats_json : t -> Hextile_obs.Json.t
