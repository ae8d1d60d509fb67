open Hextile_ir
module Oncemap = Hextile_par.Oncemap
module Json = Hextile_obs.Json
module Tile_size = Hextile_tiling.Tile_size

type ts_key = int list list * (string * int) list
type run_key = Stencil.t * (string * int) list * string * string * bool
type comp_key = Stencil.t * int option * int list option * (string * int) list

type entry = {
  canon : Shash.canon;
  ts : (ts_key, Tile_size.choice option * Tile_size.report) Oncemap.t;
  runs : (run_key, Json.t) Oncemap.t;
  compiles : (comp_key, Json.t) Oncemap.t;
}

type t = {
  entries : (int64, entry) Oncemap.t;
  hash_bits : int;
  entry_hits : int Atomic.t;
  entry_misses : int Atomic.t;
  collisions : int Atomic.t;
  ts_hits : int Atomic.t;
  ts_misses : int Atomic.t;
  run_hits : int Atomic.t;
  run_misses : int Atomic.t;
  comp_hits : int Atomic.t;
  comp_misses : int Atomic.t;
}

let create ?(hash_bits = 64) ?(bits = 10) () =
  {
    entries = Oncemap.create ~bits ();
    hash_bits = max 1 (min 64 hash_bits);
    entry_hits = Atomic.make 0;
    entry_misses = Atomic.make 0;
    collisions = Atomic.make 0;
    ts_hits = Atomic.make 0;
    ts_misses = Atomic.make 0;
    run_hits = Atomic.make 0;
    run_misses = Atomic.make 0;
    comp_hits = Atomic.make 0;
    comp_misses = Atomic.make 0;
  }

let truncate t h =
  if t.hash_bits >= 64 then h
  else Int64.logand h (Int64.sub (Int64.shift_left 1L t.hash_bits) 1L)

(* Find or create the entry for a program. The publish-once table means
   the first publisher of a truncated hash owns the slot forever; a
   later program with the same truncated hash but a different canonical
   form is a collision and runs uncached. The full-key verification —
   comparing complete canonical forms, not hashes — makes a 64-bit
   collision impossible to act on. *)
let lookup t (p : Stencil.t) =
  let canon, renaming = Shash.canonicalize p in
  let key = truncate t (Shash.hash canon) in
  let verified e =
    if Shash.equal_canon e.canon canon then begin
      Atomic.incr t.entry_hits;
      Some e
    end
    else begin
      Atomic.incr t.collisions;
      None
    end
  in
  let entry =
    match Oncemap.find t.entries key with
    | Some e -> verified e
    | None ->
        Atomic.incr t.entry_misses;
        let fresh =
          {
            canon;
            ts = Oncemap.create ~bits:6 ();
            runs = Oncemap.create ~bits:6 ();
            compiles = Oncemap.create ~bits:6 ();
          }
        in
        (* publish may hand back another domain's entry for this key —
           possibly for a different program — so re-verify the winner;
           winning with our own fresh entry stays counted as the miss *)
        let won = Oncemap.publish t.entries key fresh in
        if won == fresh then Some won else verified won
  in
  (entry, renaming)

let cached map hits misses key compute =
  match Oncemap.find map key with
  | Some v ->
      Atomic.incr hits;
      v
  | None ->
      Atomic.incr misses;
      Oncemap.publish map key (compute ())

let tilesize t entry ~prog ~renaming ~env compute =
  match entry with
  | None -> compute ()
  | Some e ->
      let key = (Shash.write_offsets prog, Shash.canon_env renaming env) in
      cached e.ts t.ts_hits t.ts_misses key compute

let run t entry ~key compute =
  match entry with
  | None -> compute ()
  | Some e -> cached e.runs t.run_hits t.run_misses key compute

let compile t entry ~key compute =
  match entry with
  | None -> compute ()
  | Some e -> cached e.compiles t.comp_hits t.comp_misses key compute

type stats = {
  entry_hits : int;
  entry_misses : int;
  collisions : int;
  tilesize_hits : int;
  tilesize_misses : int;
  run_hits : int;
  run_misses : int;
  compile_hits : int;
  compile_misses : int;
}

let stats (c : t) : stats =
  {
    entry_hits = Atomic.get c.entry_hits;
    entry_misses = Atomic.get c.entry_misses;
    collisions = Atomic.get c.collisions;
    tilesize_hits = Atomic.get c.ts_hits;
    tilesize_misses = Atomic.get c.ts_misses;
    run_hits = Atomic.get c.run_hits;
    run_misses = Atomic.get c.run_misses;
    compile_hits = Atomic.get c.comp_hits;
    compile_misses = Atomic.get c.comp_misses;
  }

let stats_json t =
  let s = stats t in
  Json.Obj
    [
      ("entry_hits", Json.Int s.entry_hits);
      ("entry_misses", Json.Int s.entry_misses);
      ("collisions", Json.Int s.collisions);
      ("tilesize_hits", Json.Int s.tilesize_hits);
      ("tilesize_misses", Json.Int s.tilesize_misses);
      ("run_hits", Json.Int s.run_hits);
      ("run_misses", Json.Int s.run_misses);
      ("compile_hits", Json.Int s.compile_hits);
      ("compile_misses", Json.Int s.compile_misses);
    ]
