(* Golden-snapshot generator: prints the requested emitter's output for
   every stencil in the paper's benchmark suite (Table 3) to stdout.
   The dune rules diff this against the committed .expected files, so an
   emitter refactor that changes any byte of generated CUDA/OpenCL/PTX
   fails `dune runtest` with the diff; intentional changes are accepted
   with `dune promote`.

   The [schemes] mode pins the Overtile and split-tiling executors
   instead: for every suite program (split tiling: the 1D ones) at its
   test size and at a larger size with many interior blocks, on the
   GTX 470, at jobs 1 and 2, it prints every counter, the update and
   block counts and a bit-exact digest of every grid.

   The [hybrid] mode pins the hybrid executor the same way, exact and
   with [~analytic:true], over every suite program at its test size and
   at the larger size (48^2 x 12 is not a whole number of cache lines
   per row), plus laplacian2d at 1024^2 x 16 analytic, whose working set
   overflows the L2 so the order of the DRAM replay shows in the
   counters. It adds the memoized, analytic and class counts.
   [blit_rows] is left out: it counts how member rows are retired, not
   what they compute. *)

open Hextile_ir
module Suite = Hextile_stencils.Suite
module Hybrid_exec = Hextile_schemes.Hybrid_exec
module Hybrid = Hextile_tiling.Hybrid
module Cuda = Hextile_codegen.Cuda_emit
module Opencl = Hextile_codegen.Opencl_emit
module Ptx = Hextile_codegen.Ptx_emit
module Common = Hextile_schemes.Common
module Overtile = Hextile_schemes.Overtile
module Split_tiling = Hextile_schemes.Split_tiling
module Counters = Hextile_gpusim.Counters
module Device = Hextile_gpusim.Device
module Par = Hextile_par.Par

let tiling_of prog =
  let config = Hybrid_exec.default_config prog in
  Hybrid.make prog ~h:config.h ~w:config.w

let emit which (prog : Stencil.t) =
  Fmt.pr "// ============ %s ============@." prog.name;
  match which with
  | "cuda" -> print_string (Cuda.host_and_kernels (tiling_of prog) prog)
  | "opencl" -> print_string (Opencl.host_and_kernels (tiling_of prog) prog)
  | "ptx" ->
      List.iter
        (fun (s : Stencil.stmt) ->
          let l = Ptx.core_listing prog s in
          Fmt.pr "// %s core: %d loads, %d ops, %d stores@.%s" s.sname l.loads
            l.arith l.stores l.text)
        prog.stmts
  | w -> invalid_arg ("gen_golden: unknown emitter " ^ w)

(* Digest of the IEEE bits of every element: equal iff bit-identical. *)
let grid_digest (g : Grid.t) =
  let b = Buffer.create (8 * Array.length g.data) in
  Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) g.data;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pin_result ?(classes = false) label (r : Common.result) =
  Fmt.pr "%s updates=%d blocks=%d@." label r.updates r.blocks;
  if classes then
    Fmt.pr "%s memoized=%d analytic=%d classes=%d@." label r.blocks_memoized
      r.blocks_analytic r.classes;
  Fmt.pr "%s counters %s@." label
    (String.concat " "
       (List.map (fun (k, v) -> Fmt.str "%s=%d" k v) (Counters.to_assoc r.counters)));
  Hashtbl.fold (fun name g acc -> (name, g) :: acc) r.grids []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, g) -> Fmt.pr "%s grid %s %s@." label name (grid_digest g))

let larger_params (prog : Stencil.t) =
  match Stencil.spatial_dims prog with
  | 1 -> [ ("N", 200); ("T", 12) ]
  | 2 -> [ ("N", 48); ("T", 12) ]
  | _ -> [ ("N", 24); ("T", 6) ]

let pin_schemes () =
  List.iter
    (fun (prog : Stencil.t) ->
      List.iter
        (fun params ->
          let env p = List.assoc p params in
          let size = Fmt.str "N%d.T%d" (env "N") (env "T") in
          List.iter
            (fun jobs ->
              Par.with_pool ~jobs (fun pool ->
                  pin_result
                    (Fmt.str "%s %s overtile jobs%d" prog.name size jobs)
                    (Overtile.run ~pool prog env Device.gtx470);
                  if Stencil.spatial_dims prog = 1 then
                    pin_result
                      (Fmt.str "%s %s split jobs%d" prog.name size jobs)
                      (Split_tiling.run ~pool prog env Device.gtx470)))
            [ 1; 2 ])
        [ Suite.test_params prog; larger_params prog ])
    Suite.all

let pin_hybrid () =
  let runs =
    List.concat_map
      (fun (prog : Stencil.t) ->
        List.concat_map
          (fun params -> [ (prog, params, false); (prog, params, true) ])
          [ Suite.test_params prog; larger_params prog ])
      Suite.all
    @ [ (Suite.laplacian2d, [ ("N", 1024); ("T", 16) ], true) ]
  in
  List.iter
    (fun ((prog : Stencil.t), params, analytic) ->
      let env p = List.assoc p params in
      let label =
        Fmt.str "%s N%d.T%d %s" prog.name (env "N") (env "T")
          (if analytic then "analytic" else "exact")
      in
      List.iter
        (fun jobs ->
          Par.with_pool ~jobs (fun pool ->
              pin_result ~classes:true
                (Fmt.str "%s jobs%d" label jobs)
                (Hybrid_exec.run ~pool ~analytic prog env Device.gtx470)))
        [ 1; 2 ])
    runs

let () =
  let which =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else invalid_arg "gen_golden: expected cuda | opencl | ptx | schemes | hybrid"
  in
  match which with
  | "schemes" -> pin_schemes ()
  | "hybrid" -> pin_hybrid ()
  | _ -> List.iter (emit which) Suite.table3
