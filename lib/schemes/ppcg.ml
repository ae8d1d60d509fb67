open Hextile_ir
open Hextile_gpusim

type config = { tile : int array option }

let default_config = { tile = None }

let default_tile ~dims =
  match dims with
  | 1 -> [| 256 |]
  | 2 -> [| 16; 32 |]
  | _ ->
      let t = Array.make dims 4 in
      t.(dims - 1) <- 32;
      t.(dims - 2) <- 8;
      t

let run ?pool ?engine ?(config = default_config) ?(name = "ppcg") prog env dev =
  let ctx = Common.make_ctx ?engine prog env dev in
  let tile =
    match config.tile with Some t -> t | None -> default_tile ~dims:ctx.dims
  in
  let threads = min dev.Device.max_threads_per_block (Array.fold_left ( * ) 1 tile) in
  for tstep = 0 to ctx.steps - 1 do
    Array.iteri
      (fun si stmt ->
        let lo = ctx.lo.(si) and hi = ctx.hi.(si) in
        (* grid of tiles over the statement domain *)
        let ntiles =
          Array.init ctx.dims (fun d ->
              max 0 ((hi.(d) - lo.(d) + tile.(d)) / tile.(d)))
        in
        let blocks = Array.fold_left ( * ) 1 ntiles in
        if blocks > 0 then
          Sim.launch ?pool ctx.sim
            ~name:(Fmt.str "%s_%s_t%d" name stmt.Stencil.sname tstep)
            ~blocks ~threads
            ~shared_bytes:0 (* checked per-block below via layout *)
            ~f:(fun b ->
              (* decode block id into tile coordinates *)
              let tc = Array.make ctx.dims 0 in
              let rest = ref b in
              for d = ctx.dims - 1 downto 0 do
                tc.(d) <- !rest mod ntiles.(d);
                rest := !rest / ntiles.(d)
              done;
              let region =
                {
                  Common.blo = Array.init ctx.dims (fun d -> lo.(d) + (tc.(d) * tile.(d)));
                  bhi =
                    Array.init ctx.dims (fun d ->
                        min hi.(d) (lo.(d) + ((tc.(d) + 1) * tile.(d)) - 1));
                }
              in
              if not (Common.box_is_empty region) then begin
                (* copy-in: the region dilated by each read's offsets,
                   clipped to the grid, per (array, slot) *)
                let lay = Common.Layout.create ctx in
                List.iter
                  (fun a -> Common.Layout.cover lay ctx a ~tstep region)
                  (Stencil.distinct_reads stmt);
                Common.load_layout ctx lay;
                Sim.sync ctx.sim;
                (* compute *)
                Common.iter_box_rows region ~f:(fun point ->
                    let xdim = ctx.dims - 1 in
                    let x0 = region.blo.(xdim) in
                    Common.exec_stmt_row ctx ~stmt ~tstep ~point ~x0
                      ~n:(region.bhi.(xdim) - x0 + 1)
                      ~global_reads:false ~shared_replay:1 ~interleave_store:true
                      ~use_shared:false
                      ~shared_addr:(Common.Layout.access_addr lay ctx ~tstep)
                      ());
                Sim.sync ctx.sim
              end))
      ctx.stmts
  done;
  Common.finish ctx ~scheme:name
