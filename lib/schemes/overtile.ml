open Hextile_ir
open Hextile_gpusim
open Hextile_util
open Hextile_deps

type config = { hh : int; tile : int array option }

let default_config ~dims = { hh = (if dims >= 3 then 1 else 4); tile = None }

let radii (prog : Stencil.t) =
  let dims = Stencil.spatial_dims prog in
  let r = Array.make dims 0 in
  List.iter
    (fun (s : Stencil.stmt) ->
      List.iter
        (fun (a : Stencil.access) ->
          Array.iteri (fun d o -> r.(d) <- max r.(d) (abs o)) a.offsets)
        (Stencil.reads s))
    prog.stmts;
  r

(* Value-flow reach per schedule-time unit, from the dependence cone. *)
let slopes (prog : Stencil.t) =
  let deps = Dep.analyze prog in
  Array.init (Stencil.spatial_dims prog) (fun d ->
      let c = Cone.of_deps deps ~dim:d in
      Rat.max c.delta0 c.delta1)

let dilate (region : Common.box) ~by ~lo ~hi =
  {
    Common.blo = Array.mapi (fun d l -> max lo.(d) (l - by.(d))) region.blo;
    bhi = Array.mapi (fun d h -> min hi.(d) (h + by.(d))) region.bhi;
  }

(* Which (array, slot) keys must be preloaded: read before written, at
   slot granularity (exact for shrinking trapezoids). *)
let needed_slots (ctx : Common.ctx) ~tt0 ~hh_eff =
  let n = Common.nkeys ctx.prog in
  let needed = Array.make n false and written = Array.make n false in
  for j = 0 to hh_eff - 1 do
    let tstep = tt0 + j in
    Array.iter
      (fun (s : Stencil.stmt) ->
        List.iter
          (fun a ->
            let k = Common.Layout.key ctx a ~tstep in
            if not written.(k) then needed.(k) <- true)
          (Stencil.reads s);
        written.(Common.Layout.key ctx s.write ~tstep) <- true)
      ctx.stmts
  done;
  needed

let run ?pool ?engine ?config prog env dev =
  let ctx = Common.make_ctx ?engine prog env dev in
  let config =
    match config with Some c -> c | None -> default_config ~dims:ctx.dims
  in
  let hh = max 1 config.hh in
  let tile =
    match config.tile with
    | Some t -> t
    | None ->
        if ctx.dims >= 3 then begin
          (* the autotuned space-tiling fallback favours taller tiles than
             PPCG's default (lower halo-to-volume ratio) *)
          let t = Array.make ctx.dims 8 in
          t.(ctx.dims - 1) <- 32;
          t
        end
        else Ppcg.default_tile ~dims:ctx.dims
  in
  let threads = min dev.Device.max_threads_per_block (Array.fold_left ( * ) 1 tile) in
  let slope = slopes prog in
  let rad = radii prog in
  (* union domain across statements *)
  let lo = Array.init ctx.dims (fun d -> Array.fold_left (fun m l -> min m l.(d)) max_int ctx.lo) in
  let hi = Array.init ctx.dims (fun d -> Array.fold_left (fun m h -> max m h.(d)) min_int ctx.hi) in
  let ntiles = Array.init ctx.dims (fun d -> max 0 ((hi.(d) - lo.(d) + tile.(d)) / tile.(d))) in
  let blocks = Array.fold_left ( * ) 1 ntiles in
  let reach units = Array.map (fun s -> Rat.ceil (Rat.mul_int s units)) slope in
  let tt0 = ref 0 in
  while !tt0 < ctx.steps do
    let hh_eff = min hh (ctx.steps - !tt0) in
    let tt0v = !tt0 in
    let snap = Common.snapshot ctx in
    let needed = needed_slots ctx ~tt0:tt0v ~hh_eff in
    Sim.launch ?pool ctx.sim
      ~name:(Fmt.str "overtile_tt%d" tt0v)
      ~blocks ~threads ~shared_bytes:0
      ~f:(fun b ->
        let tc = Array.make ctx.dims 0 in
        let rest = ref b in
        for d = ctx.dims - 1 downto 0 do
          tc.(d) <- !rest mod ntiles.(d);
          rest := !rest / ntiles.(d)
        done;
        let out =
          {
            Common.blo = Array.init ctx.dims (fun d -> lo.(d) + (tc.(d) * tile.(d)));
            bhi =
              Array.init ctx.dims (fun d ->
                  min hi.(d) (lo.(d) + ((tc.(d) + 1) * tile.(d)) - 1));
          }
        in
        if not (Common.box_is_empty out) then begin
          let copy_by = Array.mapi (fun d r -> r + rad.(d)) (reach (ctx.k * (hh_eff - 1))) in
          let inbox (arr : string) =
            let g = Grid.find ctx.grids arr in
            let gbase = Array.length g.dims - ctx.dims in
            dilate out ~by:copy_by ~lo:(Array.make ctx.dims 0)
              ~hi:(Array.init ctx.dims (fun d -> g.dims.(gbase + d) - 1))
          in
          (* one shared box per (array, slot) touched *)
          let lay = Common.Layout.create ctx in
          List.iter
            (fun (s : Stencil.stmt) ->
              List.iter
                (fun (a : Stencil.access) ->
                  let box = inbox a.array in
                  for j = 0 to hh_eff - 1 do
                    Common.Layout.add lay
                      ~key:(Common.Layout.key ctx a ~tstep:(tt0v + j))
                      box
                  done)
                (s.write :: Stencil.reads s))
            ctx.prog.stmts;
          (* copy-in: the slots read before they are written, in key order
             (declaration order, slots ascending) *)
          Common.Layout.iter lay ctx ~f:(fun ~grid ~slot ~key box ->
              if needed.(key) then
                Common.load_box_rows ctx ~grid ~slot ~box ~skip_x:(fun _ -> None)
                  ~shared_addr:(Common.Layout.addr lay ~key));
          Sim.sync ctx.sim;
          (* the shrinking trapezoid: statement [si]'s region at step [j] *)
          let regions =
            Array.init hh_eff (fun j ->
                Array.init ctx.k (fun si ->
                    let units = (ctx.k * (hh_eff - 1 - j)) + (ctx.k - 1 - si) in
                    dilate out ~by:(reach units) ~lo:ctx.lo.(si) ~hi:ctx.hi.(si)))
          in
          (* functional copy-in: the block's values, snapshot first *)
          let store =
            Common.Store.load ctx ~snap
              (List.concat
                 (List.init hh_eff (fun j ->
                      List.init ctx.k (fun si ->
                          (ctx.stmts.(si), tt0v + j, regions.(j).(si))))))
          in
          (* redundant compute over the shrinking trapezoid *)
          for j = 0 to hh_eff - 1 do
            let t = tt0v + j in
            Array.iteri
              (fun si stmt ->
                let region = regions.(j).(si) in
                if not (Common.box_is_empty region) then begin
                  let xdim = ctx.dims - 1 in
                  let x0 = region.blo.(xdim) in
                  let n = region.bhi.(xdim) - x0 + 1 in
                  let shared_addr = Common.Layout.access_addr lay ctx ~tstep:t in
                  Common.iter_box_rows region ~f:(fun point ->
                      Common.exec_stmt_row ctx ~stmt ~tstep:t ~point ~x0 ~n ~store
                        ~count:false ~global_reads:false ~shared_replay:1
                        ~interleave_store:false ~use_shared:true ~shared_addr ())
                end)
              ctx.stmts;
            Sim.sync ctx.sim
          done;
          (* copy-out: final values of cells inside the output tile *)
          Common.Store.copy_out store ctx ~within:out
        end);
    tt0 := tt0v + hh_eff
  done;
  (* Useful updates = the reference instance count (redundant halo
     recomputation does not produce additional stencils). *)
  Atomic.set ctx.updates (Interp.stencil_updates prog env);
  Common.finish ctx ~scheme:"overtile"
