open Hextile_gpusim
open Hextile_util
open Hextile_deps

type config = { hh : int; width : int }

let default_config = { hh = 4; width = 64 }

let run ?pool ?engine ?(config = default_config) prog env dev =
  let ctx = Common.make_ctx ?engine prog env dev in
  if ctx.dims <> 1 then
    invalid_arg "Split_tiling.run: only 1D stencils (the paper's degenerate case)";
  if ctx.k <> 1 then
    invalid_arg "Split_tiling.run: single-statement programs only";
  let hh = max 1 config.hh and width = config.width in
  let deps = Dep.analyze prog in
  let cone = Cone.of_deps deps ~dim:0 in
  (* symmetric per-u-unit slope, scaled to per-time-step reach *)
  let r =
    max 1 (Rat.ceil (Rat.mul_int (Rat.max cone.delta0 cone.delta1) ctx.k))
  in
  if width <= 2 * r * hh then
    invalid_arg
      (Fmt.str "Split_tiling.run: width %d too small for reach %d over %d steps"
         width r hh);
  let lo = ctx.lo.(0).(0) and hi = ctx.hi.(0).(0) in
  let span = hi - lo + 1 in
  (* A clipped last tile narrower than the dependence reach over the
     block would vanish partway up, merging the phase-B gaps around it —
     and the merged gap's owner would read cells that a later block of
     the same launch writes. Absorb such a remainder into its left
     neighbour so no upright ever vanishes and gaps never merge. *)
  let nbase0 = (span + width - 1) / width in
  let rem = span - ((nbase0 - 1) * width) in
  let nbase, wlast =
    if nbase0 > 1 && rem <= 2 * r * hh then (nbase0 - 1, width + rem)
    else (nbase0, rem)
  in
  (* the cells of [xlo, xhi] inside the statement domain *)
  let clip ~xlo ~xhi =
    { Common.blo = [| max xlo ctx.lo.(0).(0) |]; bhi = [| min xhi ctx.hi.(0).(0) |] }
  in
  (* copy-in: [inlo, inhi] of every (array, slot) into shared memory;
     returns the shared address of an access *)
  let copy_in ~t0 ~inlo ~inhi =
    let lay = Common.Layout.create ctx in
    for key = 0 to Common.nkeys prog - 1 do
      Common.Layout.add lay ~key { Common.blo = [| inlo |]; bhi = [| inhi |] }
    done;
    Common.load_layout ctx lay;
    Sim.sync ctx.sim;
    Common.Layout.access_addr lay ctx ~tstep:t0
  in
  let exec_interval ?store ~tstep ~xlo ~xhi ~shared_addr () =
    let r = clip ~xlo ~xhi in
    let xlo = r.blo.(0) and xhi = r.bhi.(0) in
    if xlo <= xhi then
      Common.exec_stmt_row ctx ~stmt:ctx.stmts.(0) ~tstep ~point:[| xlo |]
        ~x0:xlo ~n:(xhi - xlo + 1)
        ?store ~global_reads:false ~shared_replay:1 ~interleave_store:true
        ~use_shared:true ~shared_addr ()
  in
  let tt0 = ref 0 in
  while !tt0 < ctx.steps do
    (* a single-tile domain can itself be narrower than the reach over
       the block; cap the block height so the tile survives every step *)
    let hh_eff =
      min (min hh (ctx.steps - !tt0)) (1 + ((span - 1) / (2 * r)))
    in
    let t0 = !tt0 in
    (* ---- phase A: upright trapezoids --------------------------------- *)
    let snap = Common.snapshot ctx in
    Sim.launch ?pool ctx.sim
      ~name:(Fmt.str "split_up_tt%d" t0)
      ~blocks:nbase ~threads:(min (max width wlast) 256) ~shared_bytes:0
      ~f:(fun b ->
        let base_lo = lo + (b * width) in
        let base_hi = if b = nbase - 1 then hi else base_lo + width - 1 in
        (* copy-in the base plus read halo *)
        let shared_addr =
          copy_in ~t0 ~inlo:(max lo (base_lo - r)) ~inhi:(min hi (base_hi + r))
        in
        (* the block reads the pre-launch snapshot overlaid with its own
           writes, so concurrent blocks never see each other's halo
           updates; writes also go through to the grid (the interleaved
           copy-out) *)
        let store =
          Common.Store.load ~write_through:true ctx ~snap
            (List.init hh_eff (fun j ->
                 ( ctx.stmts.(0),
                   t0 + j,
                   clip ~xlo:(base_lo + (r * j)) ~xhi:(base_hi - (r * j)) )))
        in
        for j = 0 to hh_eff - 1 do
          exec_interval ~store ~tstep:(t0 + j) ~xlo:(base_lo + (r * j))
            ~xhi:(base_hi - (r * j)) ~shared_addr ();
          Sim.sync ctx.sim
        done);
    (* ---- phase B: inverted trapezoids -------------------------------- *)
    (* Upright tile k at step j covers [ulo k j, uhi k j]; the inverted
       block at boundary b owns the gap containing its boundary. Every
       upright is wider than the reach over the block (narrow remainders
       were absorbed above), so no upright vanishes and every gap holds
       exactly one boundary; the owner scan below is kept as a guard. *)
    let ulo k j = lo + (k * width) + (r * j) in
    let uhi k j =
      (if k = nbase - 1 then hi else lo + ((k + 1) * width) - 1) - (r * j)
    in
    let bnd_of b = if b >= nbase then hi + 1 else min (lo + (b * width)) (hi + 1) in
    let gap_of b j =
      let bnd = bnd_of b in
      (* nearest nonempty upright strictly left / right of the boundary *)
      let rec left k = if k < 0 then lo - 1 else if ulo k j <= uhi k j && uhi k j < bnd then uhi k j else left (k - 1) in
      let rec right k = if k >= nbase then hi + 1 else if ulo k j <= uhi k j && ulo k j >= bnd then ulo k j else right (k + 1) in
      let gl = left (b - 1) + 1 and gh = right b - 1 in
      (* ownership: the smallest boundary inside (gl-1, gh] *)
      let rec owner b' = if bnd_of b' >= gl then owner (b' - 1) else b' + 1 in
      if b = owner b then Some (max lo gl, min hi gh) else None
    in
    Sim.launch ?pool ctx.sim
      ~name:(Fmt.str "split_down_tt%d" t0)
      ~blocks:(nbase + 1) ~threads:(min (2 * r * hh) 256) ~shared_bytes:0
      ~f:(fun b ->
        let bnd = bnd_of b in
        let inlo = max lo (bnd - (r * hh_eff) - r)
        and inhi = min hi (bnd + (r * hh_eff) + r - 1) in
        if inlo <= inhi then begin
          let shared_addr = copy_in ~t0 ~inlo ~inhi in
          for j = 1 to hh_eff - 1 do
            let t = t0 + j in
            (match gap_of b j with
            | Some (xlo, xhi) ->
                exec_interval ~tstep:t ~xlo ~xhi ~shared_addr ()
            | None -> ());
            Sim.sync ctx.sim
          done
        end);
    tt0 := t0 + hh_eff
  done;
  Common.finish ctx ~scheme:"split"
