open Hextile_ir
open Hextile_gpusim
open Hextile_util
module Obs = Hextile_obs.Obs

type engine = Ref | Tape

type compiled = {
  cidx : int;  (** statement index in the program (tape replay key) *)
  ceval : int -> int array -> float;  (** tstep -> point -> value *)
  cwgrid : Grid.t;
  cwflat : int -> int array -> int;  (** tstep -> point -> flat write index *)
  tape : (Tape.t * Tape.plan) option;
      (** the register tape and its fused run plan; [None] when row
          batching would reorder an aliased read/write (the per-lane
          interleaved reference order must be kept) *)
  tsrcs : (Grid.t * (int -> int array -> int)) array;
      (** per distinct read, in tape register order *)
  tdatas : float array array;  (** [tsrcs] data arrays (read-only share) *)
  caccs : Stencil.access list;  (** distinct reads, in [tsrcs] order *)
  skeys : (int -> int) array;
      (** per [tsrcs] entry: tstep -> block-store key of the read *)
  swkey : int -> int;  (** tstep -> block-store key of the write *)
}

type ctx = {
  sim : Sim.t;
  prog : Stencil.t;
  env : string -> int;
  grids : (string, Grid.t) Hashtbl.t;
  k : int;
  dims : int;
  steps : int;
  stmts : Stencil.stmt array;
  lo : int array array;
  hi : int array array;
  updates : int Atomic.t;
  compiled : (string, compiled) Hashtbl.t;
  engine : engine;
}

(* Out-of-line error path: the hot loop pays one compare per dimension
   and never touches the [Fmt] machinery unless a bound actually
   fails. *)
let[@inline never] oob_access aname d c =
  invalid_arg (Fmt.str "access to %s out of bounds (dim %d: %d)" aname d c)

(* Compile an access into a closure computing the flat element index
   without allocation. *)
let access_flat grids (a : Stencil.access) =
  let g = Grid.find grids a.array in
  let dims = g.dims in
  let fold = g.decl.fold in
  let ns = Array.length a.offsets in
  let base_j = Array.length dims - ns in
  let offsets = a.offsets in
  let toff = a.time_off in
  let aname = a.array in
  fun tstep (point : int array) ->
    let off =
      ref (match fold with Some m -> Intutil.fmod (tstep + toff) m | None -> 0)
    in
    for d = 0 to ns - 1 do
      let c = point.(d) + offsets.(d) in
      let ext = dims.(base_j + d) in
      if c < 0 || c >= ext then oob_access aname d c;
      off := (!off * ext) + c
    done;
    !off

(* Flatten the right-hand side into a {!Tape.t}, with the statement's
   distinct reads as source registers. The tape evaluates every lane's
   reads before any lane's write, while the closure path interleaves
   read/write per lane — so statements where a read can alias the
   written storage slot at a *different* cell keep the closure path
   ([None]); reading the written cell itself is order-insensitive. *)
let compile_tape (s : Stencil.stmt) (wg : Grid.t) =
  let reads = Stencil.distinct_reads s in
  let hazard (a : Stencil.access) =
    String.equal a.array s.write.array
    && (match wg.decl.fold with
       | None -> true
       | Some m -> Intutil.fmod (a.time_off - s.write.time_off) m = 0)
    && a.offsets <> s.write.offsets
  in
  if List.exists hazard reads then None
  else begin
    let srcs = Array.of_list reads in
    let nsrcs = Array.length srcs in
    let src_reg a =
      let r = ref (-1) in
      Array.iteri (fun i a' -> if a' = a then r := i) srcs;
      !r
    in
    let instrs = ref [] in
    let next = ref nsrcs in
    let fresh () =
      let r = !next in
      incr next;
      r
    in
    let emit i = instrs := i :: !instrs in
    let rec comp (e : Stencil.fexpr) =
      match e with
      | Read a -> src_reg a
      | Fconst v ->
          let dst = fresh () in
          emit (Tape.Const { dst; v });
          dst
      | Neg e ->
          let a = comp e in
          let dst = fresh () in
          emit (Tape.Neg { dst; a });
          dst
      | Bin (op, l, r) ->
          let a = comp l in
          let b = comp r in
          let dst = fresh () in
          emit
            (match op with
            | Add -> Tape.Add { dst; a; b }
            | Sub -> Tape.Sub { dst; a; b }
            | Mul -> Tape.Mul { dst; a; b }
            | Div -> Tape.Div { dst; a; b });
          dst
    in
    let result = comp s.rhs in
    Some
      (Tape.make ~nsrcs ~nregs:(max !next 1) ~result
         ~instrs:(Array.of_list (List.rev !instrs)))
  end

(* Cross-request tape cache. A statement's register tape is a pure
   function of the statement and its write array's fold depth (the only
   part of the grid shape [compile_tape] consults), so compiled tapes are
   shared process-wide in a publish-once table — a long-lived server
   compiles each distinct statement once across every request instead of
   once per [make_ctx]. [Tape.t] is immutable (scratch buffers are
   per-domain, not part of the tape), so sharing is sound. *)
let tape_cache :
    (Stencil.stmt * int option, (Tape.t * Tape.plan) option) Hextile_par.Oncemap.t
    =
  Hextile_par.Oncemap.create ~bits:8 ~name:"schemes.tape" ()

let slots (d : Stencil.array_decl) = Option.value d.fold ~default:1

(* Block-store keys number the (array, slot) pairs in declaration order:
   an array's slots follow the slots of every array declared before it. *)
let store_key (prog : Stencil.t) aname =
  let rec go base = function
    | [] -> invalid_arg ("Common.store_key: unknown array " ^ aname)
    | (d : Stencil.array_decl) :: rest ->
        if String.equal d.aname aname then base else go (base + slots d) rest
  in
  go 0 prog.arrays

let access_key (ctx : ctx) (a : Stencil.access) =
  let g = Grid.find ctx.grids a.array in
  let base = store_key ctx.prog a.array in
  fun tstep -> base + Grid.slot g (tstep + a.time_off)

let compile_stmt (ctx : ctx) (s : Stencil.stmt) =
  match Hashtbl.find_opt ctx.compiled s.sname with
  | Some c -> c
  | None ->
      let rec comp (e : Stencil.fexpr) =
        match e with
        | Read a ->
            let g = Grid.find ctx.grids a.array in
            let fl = access_flat ctx.grids a in
            fun tstep point -> g.data.(fl tstep point)
        | Fconst f -> fun _ _ -> f
        | Neg e ->
            let c = comp e in
            fun t p -> -.c t p
        | Bin (op, l, r) -> (
            let cl = comp l and cr = comp r in
            match op with
            | Add -> fun t p -> cl t p +. cr t p
            | Sub -> fun t p -> cl t p -. cr t p
            | Mul -> fun t p -> cl t p *. cr t p
            | Div -> fun t p -> cl t p /. cr t p)
      in
      let cidx =
        let r = ref 0 in
        Array.iteri (fun i (s' : Stencil.stmt) -> if String.equal s'.sname s.sname then r := i) ctx.stmts;
        !r
      in
      let wg = Grid.find ctx.grids s.write.array in
      let caccs = Stencil.distinct_reads s in
      let tsrcs =
        Array.of_list
          (List.map
             (fun (a : Stencil.access) ->
               (Grid.find ctx.grids a.array, access_flat ctx.grids a))
             caccs)
      in
      let tp =
        Hextile_par.Oncemap.find_or_compute tape_cache
          (s, wg.decl.fold)
          (fun () ->
            Option.map (fun t -> (t, Tape.plan t)) (compile_tape s wg))
      in
      let c =
        {
          cidx;
          ceval = comp s.rhs;
          cwgrid = wg;
          cwflat = access_flat ctx.grids s.write;
          tape = tp;
          tsrcs;
          tdatas = Array.map (fun ((g : Grid.t), _) -> g.data) tsrcs;
          caccs;
          skeys = Array.of_list (List.map (access_key ctx) caccs);
          swkey = access_key ctx s.write;
        }
      in
      Hashtbl.replace ctx.compiled s.sname c;
      c

let make_ctx ?(engine = Tape) (prog : Stencil.t) env dev =
  (match Stencil.validate prog with
  | Ok () -> ()
  | Error m -> invalid_arg ("Common.make_ctx: " ^ m));
  (* Same out-of-domain convention (and diagnostic) as Interp.run: any
     reachable out-of-bounds access is rejected before execution. *)
  (match Analysis.bounds_check prog env with
  | Ok () -> ()
  | Error m -> invalid_arg ("Common.make_ctx: " ^ m));
  let stmts = Array.of_list prog.stmts in
  let ctx =
    {
      sim = Sim.create dev;
      prog;
      env;
      grids = Grid.alloc prog env;
      k = Array.length stmts;
      dims = Stencil.spatial_dims prog;
      steps = Affp.eval prog.steps env;
      stmts;
      lo = Array.map (fun (s : Stencil.stmt) -> Array.map (fun e -> Affp.eval e env) s.lo) stmts;
      hi = Array.map (fun (s : Stencil.stmt) -> Array.map (fun e -> Affp.eval e env) s.hi) stmts;
      updates = Atomic.make 0;
      compiled = Hashtbl.create 8;
      engine;
    }
  in
  (* Make the context read-only before any (possibly parallel) block
     execution: place every array at its declaration-order address so the
     lazy first-touch path never runs, and precompile every statement so
     the memo table is never mutated from a worker domain. *)
  List.iter
    (fun (a : Stencil.array_decl) ->
      Addrmap.register ctx.sim.addr (Grid.find ctx.grids a.aname)
        ~offset_floats:0)
    prog.arrays;
  Array.iter (fun s -> ignore (compile_stmt ctx s)) stmts;
  ctx

type result = {
  scheme : string;
  device : Device.t;
  counters : Counters.t;
  kernel_time : float;
  transfer_time : float;
  updates : int;
  grids : (string, Grid.t) Hashtbl.t;
  blocks : int;
  blocks_memoized : int;
  blocks_analytic : int;
  classes : int;
  blit_rows : int;
  replay_lines : int;
  epilogue_ms : float;
  derive_ms : float;
  dram_ms : float;
  grids_ms : float;
}

let finish ctx ~scheme =
  let bytes = 4 * Analysis.footprint_floats ctx.prog ctx.env in
  {
    scheme;
    device = ctx.sim.dev;
    counters = ctx.sim.total;
    kernel_time = Sim.kernel_time ctx.sim;
    transfer_time = Sim.transfer_time ctx.sim ~bytes;
    updates = Atomic.get ctx.updates;
    grids = ctx.grids;
    blocks =
      List.fold_left (fun a (l : Sim.launch) -> a + l.blocks) 0 ctx.sim.launches;
    blocks_memoized = Atomic.get ctx.sim.blocks_memoized;
    blocks_analytic = Atomic.get ctx.sim.blocks_analytic;
    classes = Atomic.get ctx.sim.tile_classes;
    blit_rows = Atomic.get ctx.sim.analytic_blit_rows;
    replay_lines = Atomic.get ctx.sim.analytic_replay_lines;
    epilogue_ms = 1000.0 *. ctx.sim.analytic_epilogue_s;
    derive_ms = 1000.0 *. ctx.sim.analytic_derive_s;
    dram_ms = 1000.0 *. ctx.sim.analytic_dram_s;
    grids_ms = 1000.0 *. ctx.sim.analytic_grids_s;
  }

let total_time r = r.kernel_time +. r.transfer_time
let gstencils_per_s r = float_of_int r.updates /. total_time r /. 1e9
let gflops r ~flops_per_update =
  float_of_int r.updates *. flops_per_update /. total_time r /. 1e9

type box = { blo : int array; bhi : int array }

let empty_box ~dims = { blo = Array.make dims max_int; bhi = Array.make dims min_int }
let box_is_empty b = Array.exists2 (fun l h -> l > h) b.blo b.bhi
let box_count b =
  if box_is_empty b then 0
  else Array.fold_left ( * ) 1 (Array.map2 (fun l h -> h - l + 1) b.blo b.bhi)

let grow b p =
  Array.iteri
    (fun i x ->
      if x < b.blo.(i) then b.blo.(i) <- x;
      if x > b.bhi.(i) then b.bhi.(i) <- x)
    p

let box_inter a b =
  {
    blo = Array.map2 max a.blo b.blo;
    bhi = Array.map2 min a.bhi b.bhi;
  }

(* Block-store keys in use: every storage slot of every array. *)
let nkeys (prog : Stencil.t) = List.fold_left (fun n d -> n + slots d) 0 prog.arrays

module Layout = struct
  type nonrec t = {
    boxes : box array;  (** by block-store key; grown in place *)
    bases : int array;  (** word base of each box, then the total *)
    mutable placed : bool;  (** [bases] match the current boxes *)
  }

  let create (ctx : ctx) =
    let n = nkeys ctx.prog in
    {
      boxes = Array.init n (fun _ -> empty_box ~dims:ctx.dims);
      bases = Array.make (n + 1) 0;
      placed = true;
    }

  let key (ctx : ctx) (a : Stencil.access) ~tstep =
    store_key ctx.prog a.array
    + Grid.slot (Grid.find ctx.grids a.array) (tstep + a.time_off)

  let add t ~key b =
    if not (box_is_empty b) then begin
      grow t.boxes.(key) b.blo;
      grow t.boxes.(key) b.bhi;
      t.placed <- false
    end

  (* Grows the box in place, without building the shifted box and with
     int-specialised compares: the hybrid executor covers every row of
     every live tile. *)
  let cover t (ctx : ctx) (a : Stencil.access) ~tstep (region : box) =
    let g = Grid.find ctx.grids a.array in
    let gbase = Array.length g.dims - ctx.dims in
    (* the region shifted by the access's offsets, clipped to the grid *)
    let lo d = Int.max 0 (region.blo.(d) + a.offsets.(d))
    and hi d = Int.min (g.dims.(gbase + d) - 1) (region.bhi.(d) + a.offsets.(d)) in
    let rec nonempty d = d = ctx.dims || (lo d <= hi d && nonempty (d + 1)) in
    if nonempty 0 then begin
      let b = t.boxes.(key ctx a ~tstep) in
      for d = 0 to ctx.dims - 1 do
        b.blo.(d) <- Int.min b.blo.(d) (lo d);
        b.bhi.(d) <- Int.max b.bhi.(d) (hi d)
      done;
      t.placed <- false
    end

  (* Pack the boxes at consecutive word bases in key order. *)
  let place t =
    if not t.placed then begin
      Array.iteri (fun k b -> t.bases.(k + 1) <- t.bases.(k) + box_count b) t.boxes;
      t.placed <- true
    end

  let find t ~key = if box_is_empty t.boxes.(key) then None else Some t.boxes.(key)

  let addr t ~key point =
    let box = t.boxes.(key) in
    if box_is_empty box then 0
    else begin
      place t;
      let off = ref 0 in
      Array.iteri
        (fun d x ->
          let x = Int.max box.blo.(d) (Int.min box.bhi.(d) x) in
          off := (!off * (box.bhi.(d) - box.blo.(d) + 1)) + (x - box.blo.(d)))
        point;
      t.bases.(key) + !off
    end

  let words t =
    place t;
    t.bases.(Array.length t.boxes)

  let iter t (ctx : ctx) ~f =
    List.iter
      (fun (d : Stencil.array_decl) ->
        let grid = Grid.find ctx.grids d.aname and k0 = store_key ctx.prog d.aname in
        for slot = 0 to slots d - 1 do
          let key = k0 + slot in
          if not (box_is_empty t.boxes.(key)) then f ~grid ~slot ~key t.boxes.(key)
        done)
      ctx.prog.arrays

  let access_addr t ctx ~tstep (a : Stencil.access) ~point =
    addr t ~key:(key ctx a ~tstep) (Array.mapi (fun d o -> point.(d) + o) a.offsets)
end

let warp_size = 32

(* Thread identity handed to the race sanitizer: the virtual thread that
   owns a domain cell, encoded injectively from its spatial point (the
   executors assign one lane per cell along x). Identities only need to
   be equal exactly when two warp events come from the same cell's lane. *)
let tid_of_point (point : int array) x =
  let h = ref 0 in
  for d = 0 to Array.length point - 2 do
    h := (!h * 8191) + point.(d) + 64
  done;
  (!h * 8191) + x + 64

let lane_tids point lane_xs =
  if Sanitize.enabled () then
    Some (Array.map (fun x -> tid_of_point point x) lane_xs)
  else None

(* Full index of a spatial point in a possibly folded grid. *)
let full_index (g : Grid.t) ~slot point =
  match g.decl.fold with
  | Some _ -> Array.append [| slot |] point
  | None -> point

let flat (g : Grid.t) ~slot point = Grid.offset g (full_index g ~slot point)

let iter_box_rows box ~f =
  if not (box_is_empty box) then begin
    let dims = Array.length box.blo in
    let point = Array.copy box.blo in
    let rec go d =
      if d = dims - 1 then f point
      else
        for x = box.blo.(d) to box.bhi.(d) do
          point.(d) <- x;
          go (d + 1)
        done
    in
    go 0
  end

let chunks_of xs f =
  let n = Array.length xs in
  let i = ref 0 in
  while !i < n do
    let len = min warp_size (n - !i) in
    f (Array.sub xs !i len);
    i := !i + len
  done

(* Per-domain plan scratch, grown on demand. Compiled statements (and
   their plans) are shared read-only across domains, so the mutable
   scratch lives in domain-local storage instead. *)
let scratch_key : float array Domain.DLS.key = Domain.DLS.new_key (fun () -> [||])

let get_scratch words =
  let b = Domain.DLS.get scratch_key in
  if Array.length b >= words then b
  else begin
    let nb = Array.make words 0.0 in
    Domain.DLS.set scratch_key nb;
    nb
  end

(* [sim.tape_instrs] of an [n]-lane row: the tape's instructions once
   per warp chunk. *)
let tape_instrs tape n = Tape.length tape * ((n + warp_size - 1) / warp_size)

(* [n] lanes through the tape's plan: sources at [datas.(k).(bases.(k) + j)],
   lane [j]'s result to [out.(out_base + j)]. *)
let run_tape (tape, plan) ~datas ~bases ~n ~out ~out_base =
  Tape.exec_plan plan
    (get_scratch (Tape.plan_scratch_words plan))
    ~datas ~bases ~dx:0 ~n ~out ~out_base;
  Obs.incr ~by:(tape_instrs tape n) "sim.tape_instrs"

(* Run one statement row through its tape: [n] lanes with per-source flat
   word bases [src_flats] (tape register order) writing from flat word
   [wflat]. The per-row reference for [compile_rows]/[exec_rows]. *)
let exec_tape_row ctx ~stmt_idx ~wflat ~src_flats ~n =
  let c = compile_stmt ctx ctx.stmts.(stmt_idx) in
  match c.tape with
  | None -> invalid_arg "Common.exec_tape_row: statement has no tape"
  | Some tape ->
      run_tape tape ~datas:c.tdatas ~bases:src_flats ~n ~out:c.cwgrid.data
        ~out_base:wflat;
      ignore (Atomic.fetch_and_add ctx.updates n)

(* Pre-resolved compute rows for memoized and derived class members: the
   per-row tape/grid/base lookups are paid once per tile class, and
   adjacent recorded rows that continue each other in memory are
   coalesced into long runs executed through the statement's fused
   [Tape.plan] — replaying a member block is a handful of bulk
   [Tape.exec_plan] calls at a word offset, one scratch fetch and one
   atomic per block.

   Coalescing is restricted to rows of one (statement, tstep): rows of
   one statement at one time step write distinct cells and (the tape
   hazard check guarantees) never read another instance's write slot, so
   any execution order within the pair is exact. The recorded stream
   interleaves x-windows of different classical tiles, so contiguous
   stores are far apart in stream order; [compile_rows] therefore sorts
   the rows by (tstep, statement, write address) before merging. The
   sort is a safe schedule: groups run in ascending u = k·tstep + si
   order, which keeps every producer group before its consumers, and a
   write from a later group that precedes a read of the same address in
   stream order cannot exist in a correct execution (the read would have
   observed a future value), so moving later groups after earlier ones
   changes no read's value. A sorted row whose write or any source does
   not continue the previous row exactly (a gapped or non-ascending
   store pattern, e.g. clipped boundary rows) starts a fresh run — the
   exact per-row fallback. *)
type crow = {
  cplan : Tape.plan;
  cdatas : float array array;
  cout : float array;
  cwflat : int;
  csrcs : int array;
  cn : int;
  cmerged : int;  (** recorded rows coalesced into this run *)
}

type crows = {
  crows : crow array;
  cregs : int;  (** max register-file words across the rows *)
  cpoints : int;  (** Σ n: statement instances per replay *)
  cinstrs : int;  (** tape instructions per replay, for [sim.tape_instrs] *)
  cblit : int;
      (** recorded rows retired through multi-row coalesced runs per
          replay, for [sim.analytic_blit_rows] *)
}

type pending_run = {
  mutable pstmt : int;
  mutable ptstep : int;
  mutable pwflat : int;
  mutable psrcs : int array;
  mutable pn : int;
  mutable pmerged : int;
  mutable pplan : Tape.plan;
  mutable pdatas : float array array;
  mutable pout : float array;
}

let compile_rows ctx rows =
  let rows = Array.of_list rows in
  (* ascending (tstep, statement) = ascending u: dependency-safe group
     order; within a group, ascending write address exposes the
     contiguous runs. Keys are strict (one write per cell per group), so
     the sort is a total order. *)
  Array.sort
    (fun (s1, t1, w1, _, _) (s2, t2, w2, _, _) ->
      let c = compare t1 t2 in
      if c <> 0 then c
      else
        let c = compare s1 s2 in
        if c <> 0 then c else compare w1 w2)
    rows;
  let points = ref 0 and instrs = ref 0 and regs = ref 0 and blit = ref 0 in
  let acc = ref [] in
  let pending : pending_run option ref = ref None in
  let close () =
    match !pending with
    | None -> ()
    | Some p ->
        if p.pmerged > 1 then blit := !blit + p.pmerged;
        acc :=
          {
            cplan = p.pplan;
            cdatas = p.pdatas;
            cout = p.pout;
            cwflat = p.pwflat;
            csrcs = p.psrcs;
            cn = p.pn;
            cmerged = p.pmerged;
          }
          :: !acc;
        pending := None
  in
  Array.iter
    (fun (stmt_idx, tstep, wflat, srcs, n) ->
      let c = compile_stmt ctx ctx.stmts.(stmt_idx) in
      match c.tape with
      | Some (tape, plan) ->
          points := !points + n;
          instrs := !instrs + tape_instrs tape n;
          regs := max !regs (Tape.plan_scratch_words plan);
          let continues =
            match !pending with
            | Some p ->
                p.pstmt = stmt_idx && p.ptstep = tstep
                && wflat = p.pwflat + p.pn
                && Array.length srcs = Array.length p.psrcs
                && (let ok = ref true in
                    Array.iteri
                      (fun i s -> if s <> p.psrcs.(i) + p.pn then ok := false)
                      srcs;
                    !ok)
            | None -> false
          in
          if continues then begin
            let p = Option.get !pending in
            p.pn <- p.pn + n;
            p.pmerged <- p.pmerged + 1
          end
          else begin
            close ();
            pending :=
              Some
                {
                  pstmt = stmt_idx;
                  ptstep = tstep;
                  pwflat = wflat;
                  psrcs = srcs;
                  pn = n;
                  pmerged = 1;
                  pplan = plan;
                  pdatas = c.tdatas;
                  pout = c.cwgrid.data;
                }
          end
      | None -> invalid_arg "Common.compile_rows: statement has no tape")
    rows;
  close ();
  {
    crows = Array.of_list (List.rev !acc);
    cregs = !regs;
    cpoints = !points;
    cinstrs = !instrs;
    cblit = !blit;
  }

let exec_rows (ctx : ctx) { crows; cregs; cpoints; cinstrs; cblit } ~off =
  let regs = get_scratch cregs in
  Array.iter
    (fun r ->
      Tape.exec_plan r.cplan regs ~datas:r.cdatas ~bases:r.csrcs ~dx:off
        ~n:r.cn ~out:r.cout ~out_base:(r.cwflat + off))
    crows;
  Obs.incr ~by:cinstrs "sim.tape_instrs";
  ignore (Atomic.fetch_and_add ctx.updates cpoints);
  if cblit > 0 then begin
    Obs.incr ~by:cblit "sim.blit_rows";
    ignore (Atomic.fetch_and_add ctx.sim.Sim.analytic_blit_rows cblit)
  end

let points r = r.cpoints

let rows_stats { crows; cblit; _ } =
  (Array.length crows, Array.fold_left (fun a r -> a + r.cmerged) 0 crows, cblit)

let batched ctx = ctx.engine = Tape && not (Sanitize.enabled ())

let strictly_ascending a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i) <= a.(i - 1) then ok := false
  done;
  !ok

let load_box_rows ctx ~grid ~slot ~box ~skip_x ~shared_addr =
  let batched = batched ctx in
  iter_box_rows box ~f:(fun row ->
      let xdim = Array.length row - 1 in
      let xlo = box.blo.(xdim) and xhi = box.bhi.(xdim) in
      let skip = skip_x row in
      let xs =
        let keep x = match skip with None -> true | Some (a, b) -> x < a || x > b in
        Array.of_list (List.filter keep (Intutil.range xlo xhi))
      in
      if Array.length xs > 0 then begin
        row.(xdim) <- xlo;
        let gbase = Addrmap.addr ctx.sim.addr grid (flat grid ~slot row) in
        let sbase = shared_addr row in
        if batched then
          chunks_of xs (fun lane_xs ->
              let nl = Array.length lane_xs in
              if lane_xs.(nl - 1) - lane_xs.(0) = nl - 1 then begin
                let d = lane_xs.(0) - xlo in
                Sim.global_load_run ctx.sim ~addr:(gbase + (4 * d)) ~n:nl;
                Sim.shared_store_run ctx.sim ~n:nl
              end
              else begin
                (* this warp straddles the reuse gap *)
                Sim.global_load_lanes ctx.sim
                  (Array.map (fun x -> gbase + (4 * (x - xlo))) lane_xs);
                Sim.shared_store_lanes ctx.sim
                  (Array.map (fun x -> sbase + x - xlo) lane_xs)
              end)
        else
          chunks_of xs (fun lane_xs ->
              let tids = lane_tids row lane_xs in
              Sim.global_load_warp ctx.sim
                (Array.map (fun x -> Some (gbase + (4 * (x - xlo)))) lane_xs);
              Sim.shared_store_warp ?tids ctx.sim
                (Array.map (fun x -> Some (sbase + x - xlo)) lane_xs))
      end)

let load_layout ctx lay =
  Layout.iter lay ctx ~f:(fun ~grid ~slot ~key box ->
      load_box_rows ctx ~grid ~slot ~box ~skip_x:(fun _ -> None)
        ~shared_addr:(Layout.addr lay ~key))

let shared_copy_rows ctx ~box ~shared_addr =
  let batched = batched ctx in
  iter_box_rows box ~f:(fun row ->
      let xdim = Array.length row - 1 in
      let xlo = box.blo.(xdim) in
      let xs = Array.of_list (Intutil.range xlo box.bhi.(xdim)) in
      if Array.length xs > 0 then begin
        row.(xdim) <- xlo;
        let sbase = shared_addr row in
        if batched then
          chunks_of xs (fun lane_xs ->
              let nl = Array.length lane_xs in
              Sim.shared_load_run ctx.sim ~n:nl;
              Sim.shared_store_run ctx.sim ~n:nl)
        else
          chunks_of xs (fun lane_xs ->
              (* one lane moves one word: load and store share identities *)
              let tids = lane_tids row lane_xs in
              let saddrs = Array.map (fun x -> Some (sbase + x - xlo)) lane_xs in
              Sim.shared_load_warp ?tids ctx.sim saddrs;
              Sim.shared_store_warp ?tids ctx.sim saddrs)
      end)

let store_cells ctx ~grid ~cells ~via_shared =
  let batched = batched ctx in
  let arr = Array.of_list cells in
  chunks_of arr (fun lane_cells ->
      if batched && strictly_ascending lane_cells then begin
        if via_shared then Sim.shared_load_lanes ctx.sim lane_cells;
        Sim.global_store_lanes ~serial:true ctx.sim
          (Array.map (fun c -> Addrmap.addr ctx.sim.addr grid c) lane_cells)
      end
      else begin
        if via_shared then
          Sim.shared_load_warp
            ?tids:(if Sanitize.enabled () then Some lane_cells else None)
            ctx.sim
            (Array.map (fun c -> Some c) lane_cells);
        Sim.global_store_warp ~serial:true ctx.sim
          (Array.map (fun c -> Some (Addrmap.addr ctx.sim.addr grid c)) lane_cells)
      end)

let snapshot (ctx : ctx) =
  let tbl = Hashtbl.create 8 in
  Hashtbl.iter (fun name (g : Grid.t) -> Hashtbl.replace tbl name (Array.copy g.data)) ctx.grids;
  tbl

(* Block-local store: what a block of an overlapped scheme sees — the
   launch snapshot overlaid with its own writes — as one dense row-major
   box per (array, slot), the functional counterpart of the shared-memory
   copy-in the executors account. Boxes and their written-cell marks live
   in per-domain buffers that are sized to the largest box seen and
   reused across blocks, launches and runs. *)
module Store = struct
  type t = {
    mutable lay : Layout.t;  (** the block's boxes (empty = untouched) *)
    mutable data : float array array;
        (** per key, row-major over its box; capacity >= its cells *)
    mutable mark : Bytes.t array;  (** per key, nonzero = written by the block *)
    mutable write_through : bool;
  }

  let domain_store =
    Domain.DLS.new_key (fun () ->
        {
          lay = { boxes = [||]; bases = [| 0 |]; placed = true };
          data = [||];
          mark = [||];
          write_through = false;
        })

  (* [f k goff boff len] for every x-row of [d]'s touched boxes [k]
     clipped to [within], slots ascending — so in ascending grid order.
     The row starts at word [goff] of the grid and word [boff] of box
     [k]. *)
  let iter_rows ?within st (ctx : ctx) (d : Stencil.array_decl) f =
    let g = Grid.find ctx.grids d.aname in
    let gbase = Array.length g.dims - ctx.dims in
    let k0 = store_key ctx.prog d.aname in
    for slot = 0 to slots d - 1 do
      let k = k0 + slot in
      let area = st.lay.boxes.(k) in
      let r = match within with Some w -> box_inter area w | None -> area in
      let rec go dim goff boff =
        let gext = g.dims.(gbase + dim)
        and bext = area.bhi.(dim) - area.blo.(dim) + 1 in
        let boff_at x = (boff * bext) + x - area.blo.(dim) in
        if dim = ctx.dims - 1 then
          f k
            ((goff * gext) + r.blo.(dim))
            (boff_at r.blo.(dim))
            (r.bhi.(dim) - r.blo.(dim) + 1)
        else
          for x = r.blo.(dim) to r.bhi.(dim) do
            go (dim + 1) ((goff * gext) + x) (boff_at x)
          done
      in
      if not (box_is_empty r) then go 0 (if gbase > 0 then slot else 0) 0
    done

  let load ?(write_through = false) (ctx : ctx) ~snap regions =
    let st = Domain.DLS.get domain_store in
    let lay = Layout.create ctx in
    List.iter
      (fun ((stmt : Stencil.stmt), tstep, region) ->
        List.iter
          (fun a -> Layout.cover lay ctx a ~tstep region)
          (stmt.write :: Stencil.reads stmt))
      regions;
    let n = Array.length lay.boxes in
    if Array.length st.data < n then begin
      st.data <- Array.make n [||];
      st.mark <- Array.make n Bytes.empty
    end;
    Array.iteri
      (fun k b ->
        let n = box_count b in
        if Array.length st.data.(k) < n then begin
          st.data.(k) <- Array.make n 0.0;
          st.mark.(k) <- Bytes.create n
        end;
        Bytes.fill st.mark.(k) 0 n '\000')
      lay.boxes;
    st.lay <- lay;
    st.write_through <- write_through;
    List.iter
      (fun (d : Stencil.array_decl) ->
        let src = Hashtbl.find snap d.aname in
        iter_rows st ctx d (fun k goff boff len ->
            Array.blit src goff st.data.(k) boff len))
      ctx.prog.arrays;
    st

  let copy_out st (ctx : ctx) ~within =
    List.iter
      (fun (d : Stencil.array_decl) ->
        let g = Grid.find ctx.grids d.aname and cells = ref [] in
        iter_rows ~within st ctx d (fun k goff boff len ->
            for i = 0 to len - 1 do
              if Bytes.get st.mark.(k) (boff + i) <> '\000' then begin
                g.data.(goff + i) <- st.data.(k).(boff + i);
                cells := (goff + i) :: !cells
              end
            done);
        if !cells <> [] then
          store_cells ctx ~grid:g ~cells:(List.rev !cells) ~via_shared:true)
      ctx.prog.arrays

  let[@inline never] outside aname =
    invalid_arg (Fmt.str "Common.Store: access to %s outside the block's box" aname)

  (* Word offset in box [k] of access [a] on [point]'s row at x = [x0],
     with both row endpoints [x0 <= x1] validated against the box (which
     lies inside the grid, so this bounds-checks the grid access too; an
     untouched box is empty, so every access to it fails). *)
  let row_offset st k (a : Stencil.access) point ~x0 ~x1 =
    let { blo; bhi } = st.lay.boxes.(k) in
    let xd = Array.length point - 1 in
    let off = ref 0 in
    for d = 0 to xd do
      let c = (if d = xd then x0 else point.(d)) + a.offsets.(d) in
      let c1 = if d = xd then x1 + a.offsets.(d) else c in
      if c < blo.(d) || c1 > bhi.(d) then outside a.array;
      off := (!off * (bhi.(d) - blo.(d) + 1)) + c - blo.(d)
    done;
    !off

  (* One lane at [point], in the per-lane interleaved read/write order. *)
  let exec_lane st (ctx : ctx) c (s : Stencil.stmt) ~tstep point =
    let x = point.(ctx.dims - 1) in
    let read (a : Stencil.access) p =
      let k = Layout.key ctx a ~tstep in
      st.data.(k).(row_offset st k a p ~x0:x ~x1:x)
    in
    let v = Interp.eval_with ~read s.rhs ~point in
    let k = c.swkey tstep in
    let o = row_offset st k s.write point ~x0:x ~x1:x in
    st.data.(k).(o) <- v;
    Bytes.set st.mark.(k) o '\001';
    if st.write_through then c.cwgrid.data.(c.cwflat tstep point) <- v

  (* A whole contiguous row through the statement's tape, sources and
     result addressed box-relative in the store's buffers. *)
  let exec_tape_row st (ctx : ctx) c tape (s : Stencil.stmt) ~tstep point ~x0 ~x1 =
    let n = x1 - x0 + 1 in
    let nsrc = Array.length c.skeys in
    let datas = Array.make nsrc [||] and bases = Array.make nsrc 0 in
    List.iteri
      (fun i a ->
        let k = c.skeys.(i) tstep in
        bases.(i) <- row_offset st k a point ~x0 ~x1;
        datas.(i) <- st.data.(k))
      c.caccs;
    let k = c.swkey tstep in
    let wbase = row_offset st k s.write point ~x0 ~x1 in
    run_tape tape ~datas ~bases ~n ~out:st.data.(k) ~out_base:wbase;
    Bytes.fill st.mark.(k) wbase n '\001';
    if st.write_through then begin
      point.(ctx.dims - 1) <- x0;
      Array.blit st.data.(k) wbase c.cwgrid.data (c.cwflat tstep point) n
    end
end

(* Lanes [x0 .. x0 + n - 1] of a row, one at a time in the per-lane
   interleaved read/write order: against the grids through the compiled
   evaluator, or against the block store. *)
let exec_lanes ctx c (s : Stencil.stmt) ~tstep ~store point ~x0 ~n =
  let xdim = ctx.dims - 1 in
  for x = x0 to x0 + n - 1 do
    point.(xdim) <- x;
    match store with
    | None -> c.cwgrid.data.(c.cwflat tstep point) <- c.ceval tstep point
    | Some st -> Store.exec_lane st ctx c s ~tstep point
  done

let exec_stmt_row ctx ~stmt ~tstep ~point ~x0 ~n ?store ?(count = true)
    ?loads_subset ~global_reads ~shared_replay ~interleave_store ~use_shared
    ~shared_addr () =
  let s : Stencil.stmt = stmt in
  if n > 0 then begin
    let xdim = ctx.dims - 1 in
    let c = compile_stmt ctx s in
    let reads = match loads_subset with Some l -> l | None -> c.caccs in
    let nflops = Stencil.flops s in
    let batched = batched ctx in
    point.(xdim) <- x0;
    (* Per-row base addresses; lanes advance with stride 1 along x (the
       innermost storage dimension). Batched shared accesses are
       accounted without addresses. *)
    let read_bases =
      if global_reads then
        let flats =
          match loads_subset with
          | None -> Array.to_list c.tsrcs
          | Some l ->
              List.map
                (fun (a : Stencil.access) ->
                  (Grid.find ctx.grids a.array, access_flat ctx.grids a))
                l
        in
        List.map
          (fun (g, fl) -> Addrmap.base ctx.sim.addr g + (4 * fl tstep point))
          flats
      else if batched then []
      else List.map (fun (r : Stencil.access) -> shared_addr r ~point) reads
    in
    let wbase_global =
      if interleave_store || not use_shared then
        Addrmap.base ctx.sim.addr c.cwgrid + (4 * c.cwflat tstep point)
      else 0
    and wbase_shared =
      if use_shared && not batched then shared_addr s.write ~point else 0
    in
    if not batched then
      chunks_of (Array.init n (fun i -> x0 + i)) (fun lane_xs ->
          let nlanes = Array.length lane_xs in
          let dx0 = lane_xs.(0) - x0 in
          let tids = lane_tids point lane_xs in
          (* lane addresses from a row [base], [stride] bytes or words per x *)
          let addrs base stride =
            Array.init nlanes (fun i -> Some (base + (stride * (dx0 + i))))
          in
          (* loads *)
          List.iter
            (fun base ->
              if global_reads then Sim.global_load_warp ctx.sim (addrs base 4)
              else Sim.shared_load_warp ~replay:shared_replay ?tids ctx.sim (addrs base 1))
            read_bases;
          (* arithmetic *)
          Sim.flops_warp ctx.sim ~active:nlanes ~per_lane:nflops;
          (* store accounting *)
          if use_shared then
            Sim.shared_store_warp ~replay:shared_replay ?tids ctx.sim (addrs wbase_shared 1);
          if interleave_store || not use_shared then
            Sim.global_store_warp ctx.sim (addrs wbase_global 4);
          exec_lanes ctx c s ~tstep ~store point ~x0:lane_xs.(0) ~n:nlanes;
          if count then ignore (Atomic.fetch_and_add ctx.updates nlanes))
    else begin
      (* Batched accounting: one event per warp chunk, same event
         sequence (and counters) as the per-lane path above. *)
      let i = ref 0 in
      while !i < n do
        let nl = min warp_size (n - !i) in
        let dx0 = !i in
        if global_reads then
          List.iter
            (fun base ->
              Sim.global_load_run ctx.sim ~addr:(base + (4 * dx0)) ~n:nl)
            read_bases
        else
          List.iter
            (fun _ -> Sim.shared_load_run ~replay:shared_replay ctx.sim ~n:nl)
            reads;
        Sim.flops_warp ctx.sim ~active:nl ~per_lane:nflops;
        if use_shared then
          Sim.shared_store_run ~replay:shared_replay ctx.sim ~n:nl;
        if interleave_store || not use_shared then
          Sim.global_store_run ctx.sim ~addr:(wbase_global + (4 * dx0)) ~n:nl;
        i := !i + nl
      done;
      (* Functional execution. *)
      let x1 = x0 + n - 1 in
      (match (store, c.tape) with
      | None, Some tape ->
          (* Word bases at x0, validating the other endpoint too: x is
             the innermost storage dimension (stride 1), so
             per-dimension validity at both row endpoints covers the
             whole contiguous lane range. *)
          let at_x0 fl =
            point.(xdim) <- x1;
            ignore (fl tstep point);
            point.(xdim) <- x0;
            fl tstep point
          in
          let bases = Array.map (fun (_, fl) -> at_x0 fl) c.tsrcs in
          let wflat = at_x0 c.cwflat in
          run_tape tape ~datas:c.tdatas ~bases ~n ~out:c.cwgrid.data ~out_base:wflat;
          if Sim.recording_active ctx.sim then begin
            let srcs =
              Array.init (Array.length bases) (fun k ->
                  Addrmap.base ctx.sim.addr (fst c.tsrcs.(k)) + (4 * bases.(k)))
            in
            Sim.record_compute ctx.sim ~stmt:c.cidx ~tstep
              ~waddr:(Addrmap.base ctx.sim.addr c.cwgrid + (4 * wflat))
              ~srcs ~n
          end
      | Some st, Some tape ->
          (* store rows have no grid addresses a recorded stream could
             replay *)
          Sim.record_invalidate ctx.sim;
          Store.exec_tape_row st ctx c tape s ~tstep point ~x0 ~x1
      | _, None ->
          (* aliasing hazard: the per-lane interleaved read/write order
             is semantically significant, and a recorded stream could not
             replay it *)
          Sim.record_invalidate ctx.sim;
          exec_lanes ctx c s ~tstep ~store point ~x0 ~n);
      if count then ignore (Atomic.fetch_and_add ctx.updates n)
    end
  end
