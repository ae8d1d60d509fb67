(* Recorded per-block event streams for tile-class memoization.

   The hybrid scheme's tiles are translation-invariant: two blocks of one
   launch whose hexagons are clipped identically against the statement
   domains issue the same warp event sequence, with every global byte
   address shifted by one constant (the S0 translation times the s0
   stride all arrays share). A stream records one representative block's
   events; replaying it with that byte delta through [Sim] reproduces
   the other blocks' accounting exactly — line ranges and coalescing are
   recomputed from the translated addresses, never copied. Compute rows
   keep the array region of each address, which maps it back to a flat
   word index. Shared-memory addresses
   are tile-relative (identical across the class) or shift uniformly,
   which rotates the bank assignment without changing the conflict
   count, so only the transaction count is recorded. *)

type ev =
  | Gload_run of { addr : int; n : int }
      (** coalesced load of [n] consecutive words at byte [addr] *)
  | Gstore_run of { addr : int; n : int; serial : bool }
  | Gload_lanes of { addrs : int array }
      (** ascending per-lane byte addresses (gapped copy-in rows) *)
  | Gstore_lanes of { addrs : int array; serial : bool }
  | Shared_load of { transactions : int }
      (** one request; [transactions] includes bank-conflict replays *)
  | Shared_store of { transactions : int }
  | Flops of { active : int; per_lane : int }
  | Sync
  | Compute of {
      stmt : int;  (** statement index in the program *)
      tstep : int;
      wregion : int;
      waddr : int;  (** byte address of the row's first written cell *)
      sregions : int array;
      srcs : int array;  (** byte address of each source's first cell *)
      n : int;  (** lanes (row width) *)
    }
      (** functional execution of one statement row through its tape;
          replay translates the write/source addresses like the memory
          events and runs the tape against the replaying block's grids *)

type stream = { mutable evs : ev array; mutable len : int }

let create () = { evs = Array.make 64 Sync; len = 0 }

let push s ev =
  if s.len = Array.length s.evs then begin
    let nb = Array.make (2 * s.len) Sync in
    Array.blit s.evs 0 nb 0 s.len;
    s.evs <- nb
  end;
  s.evs.(s.len) <- ev;
  s.len <- s.len + 1

let length s = s.len

let mem_events s =
  let n = ref 0 in
  for i = 0 to s.len - 1 do
    match s.evs.(i) with
    | Gload_run _ | Gstore_run _ | Gload_lanes _ | Gstore_lanes _
    | Shared_load _ | Shared_store _ ->
        incr n
    | Flops _ | Sync | Compute _ -> ()
  done;
  !n

let iter s ~f =
  for i = 0 to s.len - 1 do
    f s.evs.(i)
  done
