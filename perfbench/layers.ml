(* The benchmark's only entry points into the program: one wrapper per
   layer call, each recorded as a span named after its layer when
   tracing is on. *)

open Hextile_ir
module Experiments = Hextile_experiments.Experiments
module Common = Hextile_schemes.Common
module Hybrid_exec = Hextile_schemes.Hybrid_exec
module Tile_size = Hextile_tiling.Tile_size
module Hybrid = Hextile_tiling.Hybrid
module Par = Hextile_par.Par
module Cache = Hextile_serve.Cache
module Daemon = Hextile_serve.Daemon

let env_fn env x = List.assoc x env

let scheme_layer = function
  | Experiments.Hybrid -> "sim.hybrid"
  | Experiments.Ppcg -> "sim.ppcg"
  | Experiments.Par4all -> "sim.par4all"
  | Experiments.Overtile -> "sim.overtile"
  | Experiments.Patus -> "sim.patus"

let parse ~name src =
  Trace.with_span "frontend" ~id:name (fun () ->
      Hextile_frontend.Front.parse_string ~name src)

let deps prog = Trace.with_span "deps" (fun () -> Hextile_deps.Dep.analyze prog)

let tile_size ~pool prog =
  Trace.with_span "tile_size" (fun () ->
      Tile_size.select_spec ~pool prog (Tile_size.default_spec prog))

let tiling prog ~h ~w = Trace.with_span "tiling" (fun () -> Hybrid.make prog ~h ~w)

let codegen tiling prog =
  Trace.with_span "codegen" (fun () ->
      Hextile_codegen.Cuda_emit.host_and_kernels tiling prog)

(* Simulation without the program's own verification; the reference
   check is timed apart, as [reference] and [matches_reference]. *)
let simulate ~pool ?(analytic = false) ~id scheme prog env dev =
  let layer = if analytic then "analytic" else scheme_layer scheme in
  Trace.with_span layer ~id (fun () ->
      Experiments.run_scheme ~pool ~analytic ~verify:false scheme prog env dev)

let reference ~id prog env =
  Trace.with_span "verify" ~id (fun () -> Interp.run prog (env_fn env))

(* Every grid of [r] equals the reference and the executed instance
   count equals the closed form. *)
let matches_reference ~id ~reference prog env (r : Common.result) =
  Trace.with_span "verify" ~id (fun () ->
      Hashtbl.fold
        (fun name g ok -> ok && Grid.equal g (Grid.find reference name))
        r.Common.grids true
      && r.Common.updates = Interp.stencil_updates prog (env_fn env))

let serve_wave ~id ~cache ~pool ~read_line ~write_line =
  Trace.with_span "serve.wave" ~id (fun () ->
      Daemon.run_lines ~cache ~pool ~read_line ~write_line ())

(* The compile half of the pipeline on one source: parse, analyse,
   choose tile sizes, build the tiling and emit CUDA. *)
type compiled = {
  prog : Stencil.t;
  report : Tile_size.report;
  cuda_bytes : int;
}

let compile ~pool ~name src =
  match parse ~name src with
  | Error m -> Error (name ^ ": " ^ m)
  | Ok prog -> (
      ignore (deps prog);
      let choice, report = tile_size ~pool prog in
      let h, w =
        match choice with
        | Some c -> (c.Tile_size.h, c.Tile_size.w)
        | None ->
            let c = Hybrid_exec.default_config prog in
            (c.Hybrid_exec.h, c.Hybrid_exec.w)
      in
      match tiling prog ~h ~w with
      | exception (Invalid_argument m | Failure m) -> Error (name ^ ": " ^ m)
      | t -> Ok { prog; report; cuda_bytes = String.length (codegen t prog) })

(* Tile-size search and codegen work over a set of compiled programs. *)
let compile_counts (cs : compiled list) =
  let sum f = List.fold_left (fun a c -> a + f c) 0 cs in
  let r f = sum (fun c -> f c.report) in
  [
    ("tile_size.exact_evals", float_of_int (r (fun r -> r.Tile_size.exact_evals)));
    ( "tile_size.prune_ratio",
      Stats.ratio
        (r (fun r -> r.Tile_size.pruned_infeasible + r.Tile_size.pruned_dominated))
        (r (fun r -> r.Tile_size.candidates)) );
    ("codegen.bytes", float_of_int (sum (fun c -> c.cuda_bytes)));
  ]
