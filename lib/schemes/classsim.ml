open Hextile_ir
open Hextile_gpusim
module Obs = Hextile_obs.Obs
module Tl = Hextile_obs.Timeline
module Par = Hextile_par.Par

type analytic = {
  signature : int array -> int array;
  interior : int array -> bool;
  model : int array -> int * int;
}

type mode = Live | Memo | Analytic of analytic

(* A representative's recording: its event stream, its compute rows
   compiled once for member replay and grid blits, its barrier count
   (for the class check) and its exact per-block counter delta. *)
type recording = {
  stream : Tileclass.stream;
  crows : Common.crows;
  syncs : int;
  delta : Counters.t;
}

(* Derivation source of an analytic class: everything needed to derive a
   block of the class without executing it — the recording
   representative's s0 origin (for the translation), its counter delta,
   its compressed DRAM line runs and its compute rows. Kept across
   launches in the class cache, keyed by signature. *)
type source = {
  src_s00 : int;
  src_delta : Counters.t;
  runs : int array;
  rows : Common.crows;
}

type t = {
  ctx : Common.ctx;
  mode : mode;
  rbases : int array;
  rlens : int array;
  stride0 : int;  (** the s0 stride in words every array shares *)
  cache : (int array, source) Hashtbl.t;
}

(* Region table for address-stream memoization: blocks of one launch
   differ only by a translation along s0, so every global address of a
   same-class block is the representative's address plus
   4·Δs00·stride0. Compiled rows run at one word offset for every array,
   so memo needs one s0 stride shared by all of them. Analytic mode
   additionally needs the translation to be a cache bijection: moving a
   block by a whole number of 128 B lines keeps coalescing runs, the
   per-block L1's set mapping and all shared-memory counts invariant, so
   a member's counter delta equals its representative's bit for bit and
   population scaling is exact (see Gpusim.Analytic). When that fails —
   1D programs (stride 1) or extents not divisible by 32 — the run
   degrades to memo. *)
let create (ctx : Common.ctx) ~analytic =
  let regions =
    Array.of_list
      (List.map
         (fun (d : Stencil.array_decl) -> Grid.find ctx.grids d.aname)
         ctx.prog.arrays)
  in
  let stride0s =
    Array.map
      (fun (g : Grid.t) ->
        let nd = Array.length g.dims in
        let p = ref 1 in
        for d = nd - ctx.dims + 1 to nd - 1 do
          p := !p * g.dims.(d)
        done;
        !p)
      regions
  in
  let shared =
    Array.length stride0s > 0
    && Array.for_all (fun s -> s = stride0s.(0)) stride0s
  in
  let stride0 = if shared then stride0s.(0) else 0 in
  let mode =
    if not (Common.batched ctx && shared) then Live
    else
      match analytic with
      | Some a when 4 * stride0 mod ctx.sim.dev.line_bytes = 0 -> Analytic a
      | _ -> Memo
  in
  {
    ctx;
    mode;
    rbases = Array.map (fun g -> Addrmap.base ctx.sim.addr g) regions;
    rlens = Array.map (fun (g : Grid.t) -> 4 * Array.length g.data) regions;
    stride0;
    cache = Hashtbl.create 64;
  }

let region_of t addr =
  let r = ref (-1) in
  let i = ref 0 in
  while !r < 0 && !i < Array.length t.rbases do
    if addr >= t.rbases.(!i) && addr < t.rbases.(!i) + t.rlens.(!i) then r := !i;
    incr i
  done;
  !r

(* A stream's compute rows at flat word bases, compiled once per class,
   and its barrier count. *)
let compile_stream t stream =
  let rows = ref [] and syncs = ref 0 in
  let flat region addr = (addr - t.rbases.(region)) / 4 in
  Tileclass.iter stream ~f:(function
    | Tileclass.Compute { stmt; tstep; wregion; waddr; sregions; srcs; n } ->
        let sf = Array.mapi (fun i s -> flat sregions.(i) s) srcs in
        rows := (stmt, tstep, flat wregion waddr, sf, n) :: !rows
    | Sync -> incr syncs
    | _ -> ());
  (Common.compile_rows t.ctx (List.rev !rows), !syncs)

(* Run a representative live while recording it; [None] if a per-lane
   event invalidated the recording. The active accumulator is only
   mutated by this domain, so the diff is the block's exact delta. *)
let record t ~exec b =
  let sim = t.ctx.sim in
  let before = Counters.copy (Sim.live_counters sim) in
  Sim.record_begin sim ~region_of:(region_of t);
  match exec b with
  | () -> (
      match Sim.record_end sim with
      | Some stream ->
          let delta = Counters.diff (Sim.live_counters sim) before in
          let crows, syncs = compile_stream t stream in
          Some { stream; crows; syncs; delta }
      | None -> None)
  | exception e ->
      ignore (Sim.record_end sim);
      raise e

(* A member [ds] s0 steps from its representative. *)
let replay t r ~ds =
  let off = ds * t.stride0 in
  Sim.replay_stream t.ctx.sim r.stream ~delta:(4 * off);
  Common.exec_rows t.ctx r.crows ~off

(* [Par.map] itself runs sequentially on a 1-job pool *)
let par_map pool f a =
  match pool with Some p -> Par.map p f a | None -> Array.map f a

(* One launch's classification, in canonical block order so each class's
   representative is the first block of the class to execute at jobs=1.
   [recs] is the per-launch read-once/replay-many context: written by
   the representative's domain in wave 0, read by every member in wave 1
   (the wave join orders the two), so one recording per class per
   launch at every jobs value. *)
type classes = {
  order : int array;  (** {!Sim.block_order} *)
  role : int array;  (** class id of each block *)
  rep : int array;  (** representative of each class *)
  ckey : int array array;
  recs : recording option array;
  cached : source option array;  (** analytic: cross-launch cache hits *)
  scaled : bool array;  (** analytic: members derived in the epilogue *)
}

let classify t ~blocks ~key =
  let order = Sim.block_order ~blocks in
  let keytbl : (int array, int) Hashtbl.t = Hashtbl.create 16 in
  let role = Array.make blocks (-1) in
  let reps = ref [] and keys = ref [] and n = ref 0 in
  Array.iter
    (fun b ->
      let k = key b in
      match Hashtbl.find_opt keytbl k with
      | Some cid -> role.(b) <- cid
      | None ->
          Hashtbl.add keytbl k !n;
          role.(b) <- !n;
          incr n;
          reps := b :: !reps;
          keys := k :: !keys)
    order;
  let ckey = Array.of_list (List.rev !keys) in
  let cached, scaled =
    match t.mode with
    | Analytic a ->
        ( Array.map (fun k -> Hashtbl.find_opt t.cache (a.signature k)) ckey,
          Array.map a.interior ckey )
    | Live | Memo -> (Array.make !n None, Array.make !n false)
  in
  {
    order;
    role;
    rep = Array.of_list (List.rev !reps);
    ckey;
    recs = Array.make !n None;
    cached;
    scaled;
  }

(* ---- analytic launch epilogue ---------------------------------------
   Derive every block the launch skipped in three stages: (1) counters
   by population scaling of the representative's exact delta, (2) DRAM
   by batched sorted-line-run replay through the shared L2 in canonical
   block order (sequential — the L2 is order-sensitive state), (3) grids
   by bulk blits of the representative's compiled compute rows at each
   block's word offset (parallel — disjoint writes, commutative
   counters). The class decomposition and the cache's evolution are
   fixed by class id, so everything derived is identical at every
   --jobs value. *)
let epilogue ?pool t a c ~lname ~s00 ~exec =
  let sim = t.ctx.sim in
  let line_bytes = sim.dev.line_bytes in
  let ep0 = Unix.gettimeofday () in
  let nclasses = Array.length c.rep in
  ignore (Atomic.fetch_and_add sim.tile_classes nclasses);
  Obs.incr ~by:nclasses "sim.tile_classes";
  let nhits =
    Array.fold_left (fun n h -> n + Bool.to_int (Option.is_some h)) 0 c.cached
  in
  if nhits > 0 then Obs.incr ~by:nhits "sim.class_cache_hits";
  let members = Array.make nclasses [] in
  for b = Array.length c.role - 1 downto 0 do
    let cid = c.role.(b) in
    if c.rep.(cid) <> b then members.(cid) <- b :: members.(cid)
  done;
  (* --- stage 1: compress each fresh recording's DRAM line trace
     (parallel, pure per class), then check and publish in class-id
     order and pick every class's derivation source --- *)
  let fresh =
    Array.of_list
      (List.filter
         (fun cid -> Option.is_some c.recs.(cid))
         (List.init nclasses Fun.id))
  in
  let runs =
    par_map pool
      (fun cid ->
        Analytic.compress_lines
          (Analytic.lines_of_stream (Option.get c.recs.(cid)).stream ~line_bytes))
      fresh
  in
  (* cached signature: derive every block, rep included *)
  let deriv = Array.map (Option.map (fun src -> (src, true))) c.cached in
  Array.iteri
    (fun i cid ->
      let r = Option.get c.recs.(cid) in
      let points, syncs = a.model c.ckey.(cid) in
      if points <> Common.points r.crows || syncs <> r.syncs then
        failwith
          (Fmt.str
             "%s: analytic class model mismatch: %d compute lanes and %d \
              syncs recorded, %d and %d expected"
             lname (Common.points r.crows) r.syncs points syncs);
      let src =
        {
          src_s00 = s00 c.rep.(cid);
          src_delta = r.delta;
          runs = runs.(i);
          rows = r.crows;
        }
      in
      let sg = a.signature c.ckey.(cid) in
      if not (Hashtbl.mem t.cache sg) then Hashtbl.add t.cache sg src;
      (* fresh rep ran live: derive the members only *)
      if c.scaled.(cid) then deriv.(cid) <- Some (src, false))
    fresh;
  (* counters: population-scale each derived class's delta *)
  let nderived = ref 0 in
  Array.iteri
    (fun cid d ->
      match d with
      | Some (src, with_rep) ->
          let m = List.length members.(cid) + Bool.to_int with_rep in
          Analytic.scale_into sim.total ~delta:src.src_delta ~times:m;
          nderived := !nderived + m
      | None -> ())
    deriv;
  (* invalidated recordings (a per-lane fallback row): run the members
     live here — exact, just not scaled *)
  for cid = 0 to nclasses - 1 do
    if
      c.scaled.(cid)
      && Option.is_none c.cached.(cid)
      && Option.is_none c.recs.(cid)
    then
      List.iter
        (fun b ->
          L2.reset sim.l1;
          exec b)
        members.(cid)
  done;
  let t1 = Unix.gettimeofday () in
  sim.analytic_derive_s <- sim.analytic_derive_s +. (t1 -. ep0);
  (* --- stage 2 (sequential): batched DRAM line replay, in canonical
     block order on the main domain only --- *)
  if !nderived > 0 then
    Tl.slice ~arg:(float_of_int !nderived) "sim.analytic_dram" (fun () ->
        Array.iter
          (fun b ->
            let cid = c.role.(b) in
            match deriv.(cid) with
            | Some (src, with_rep) when with_rep || c.rep.(cid) <> b ->
                Analytic.replay_line_runs sim src.runs
                  ~dline:((s00 b - src.src_s00) * t.stride0 * 4 / line_bytes)
            | _ -> ())
          c.order);
  let t2 = Unix.gettimeofday () in
  sim.analytic_dram_s <- sim.analytic_dram_s +. (t2 -. t1);
  (* --- stage 3 (parallel): bulk grid reconstruction over the
     flattened (class, block) tasks --- *)
  let gtasks = ref [] in
  for cid = nclasses - 1 downto 0 do
    match deriv.(cid) with
    | Some (src, with_rep) ->
        let push b =
          gtasks := (src.rows, (s00 b - src.src_s00) * t.stride0) :: !gtasks
        in
        List.iter push members.(cid);
        if with_rep then push c.rep.(cid)
    | None -> ()
  done;
  let gtasks = Array.of_list !gtasks in
  if Array.length gtasks > 0 then
    Tl.slice ~arg:(float_of_int (Array.length gtasks)) "sim.analytic_grids"
      (fun () ->
        ignore
          (par_map pool (fun (rows, off) -> Common.exec_rows t.ctx rows ~off) gtasks
            : unit array));
  ignore (Atomic.fetch_and_add sim.blocks_analytic !nderived);
  Obs.incr ~by:!nderived "sim.blocks_analytic";
  let t3 = Unix.gettimeofday () in
  sim.analytic_grids_s <- sim.analytic_grids_s +. (t3 -. t2);
  sim.analytic_epilogue_s <- sim.analytic_epilogue_s +. (t3 -. ep0)

let launch ?pool t ~name ~blocks ~threads ~key ~s00 ~exec =
  let sim = t.ctx.sim in
  match t.mode with
  | Live -> Sim.launch ?pool sim ~name ~blocks ~threads ~shared_bytes:0 ~f:exec
  | Memo | Analytic _ ->
      let c = classify t ~blocks ~key in
      let derived b =
        let cid = c.role.(b) in
        Option.is_some c.cached.(cid) || (c.scaled.(cid) && c.rep.(cid) <> b)
      in
      let post =
        match t.mode with
        | Analytic a ->
            Some (fun () -> epilogue ?pool t a c ~lname:name ~s00 ~exec)
        | Live | Memo -> None
      in
      Sim.launch ?pool ?post sim ~name ~blocks ~threads ~shared_bytes:0
        ~wave_of:(fun b -> if derived b || c.rep.(c.role.(b)) = b then 0 else 1)
        ~f:(fun b ->
          let cid = c.role.(b) in
          if derived b then ()
          else if c.rep.(cid) = b then c.recs.(cid) <- record t ~exec b
          else
            match c.recs.(cid) with
            | Some r -> replay t r ~ds:(s00 b - s00 c.rep.(cid))
            | None ->
                (* the representative's recording was invalidated (a
                   per-lane fallback row): members run live — same
                   counters, nothing memoized, and no domain ever
                   re-attempts the recording *)
                exec b)
