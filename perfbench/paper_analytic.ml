(* paper-analytic: the paper's laplacian instances through the analytic
   (hierarchical) mode, unverified, as [hextile run --analytic] runs
   them. The 2D instance keeps the paper's full 3072² grid, so the
   device model is unscaled, but runs 32 of its 512 time steps: the full
   instance takes about 25 s on a two-core host, longer than a round of
   a benchmark run can last. The 3D instance is a 128³ × 32 twin of
   the 384³ × 128 one. The analytic epilogue (derive, DRAM replay, grid
   blits) does most of the work here and none anywhere else. *)

open Hextile_ir
open Layers
module Device = Hextile_gpusim.Device
module Suite = Hextile_stencils.Suite

(* A round runs the 2D instance twice, on two differently seeded copies,
   so that its median latency rests on twice as many samples and the
   run stays far below the twenty samples at which the tail would
   switch from a median to a percentile (see [Outcome.tail_latency]). *)
let instances ~tiny =
  let two, three =
    if tiny then ([ ("N", 256); ("T", 8) ], [ ("N", 32); ("T", 8) ])
    else ([ ("N", 3072); ("T", 32) ], [ ("N", 128); ("T", 32) ])
  in
  [ ("a", Suite.laplacian2d, two); ("", Suite.laplacian3d, three); ("b", Suite.laplacian2d, two) ]

let builtins = [ Suite.laplacian2d; Suite.laplacian3d ]

(* Scaled twins checked against the exact tape engine. *)
let twin_env ~tiny (p : Stencil.t) =
  match (Stencil.spatial_dims p, tiny) with
  | 2, false -> [ ("N", 128); ("T", 24) ]
  | _, false -> [ ("N", 48); ("T", 12) ]
  | 2, true -> [ ("N", 64); ("T", 8) ]
  | _, true -> [ ("N", 24); ("T", 4) ]

let run o ~seed ~seconds ~tiny =
  let rng = Inputs.Rng.create seed in
  let dev = Device.gtx470 in
  let sources =
    List.map
      (fun (copy, (p : Stencil.t), env) -> (p.name ^ copy, p.name, Inputs.renamed_source rng p, env))
      (instances ~tiny)
  in
  let setup ~first =
    let pool = Par.create ~jobs:Outcome.jobs in
    let progs =
      List.map
        (fun (name, base, src, env) ->
          match compile ~pool ~name src with
          | Ok c -> (name, base, c, env)
          | Error m -> failwith ("paper-analytic set-up: " ^ m))
        sources
    in
    if first then
      List.iter (fun (k, v) -> Outcome.count o k v) (compile_counts (List.map (fun (_, _, c, _) -> c) progs));
    Trace.untraced (fun () ->
        List.iter
          (fun (_, _, (c : compiled), _) ->
            ignore
              (simulate ~pool ~analytic:true ~id:"warm-up" Experiments.Hybrid c.prog
                 (twin_env ~tiny:true c.prog) dev))
          progs);
    (pool, progs)
  in
  let pool, progs = Outcome.repeat_setup o ~setup ~teardown:(fun (p, _) -> Par.shutdown p) in
  Fun.protect ~finally:(fun () -> Par.shutdown pool) @@ fun () ->
  let model = Hashtbl.create 4 in
  (* Epilogue stage times (the program's own, in ms) and work counts,
     summed over the timed region. *)
  let derive = ref 0.0 and dram = ref 0.0 and blits = ref 0.0 and epilogue = ref 0.0 in
  let blit_rows = ref 0 and replay_lines = ref 0 and scaled = ref 0 and blocks = ref 0 in
  let round k =
    let updates = ref 0 and runs = ref 0 in
    Trace.with_span ~kind:Trace.Frame "round" ~id:(string_of_int k) @@ fun () ->
    List.iter
      (fun (name, base, (c : compiled), env) ->
        let id = Printf.sprintf "%s/%d" name k in
        let c0 = Outcome.now () in
        match simulate ~pool ~analytic:true ~id Experiments.Hybrid c.prog env dev with
        | exception e ->
            Outcome.attempt o;
            Outcome.fail o (id ^ ": " ^ Printexc.to_string e)
        | r ->
            let dt = Outcome.now () -. c0 in
            Outcome.op o name dt;
            Outcome.latency o base (1000.0 *. dt);
            let g = Common.gstencils_per_s r in
            let g0 = Option.value (Hashtbl.find_opt model name) ~default:g in
            Hashtbl.replace model name g0;
            Outcome.check o
              (r.Common.updates = Interp.stencil_updates c.prog (env_fn env)
              && r.Common.blocks_analytic > 0 && g = g0)
              (id ^ ": instance count differs from the closed form, nothing was scaled, or \
                     the simulated GStencils/s changed between rounds");
            updates := !updates + r.Common.updates;
            Outcome.add_updates o "analytic" r.Common.updates;
            incr runs;
            derive := !derive +. r.Common.derive_ms;
            dram := !dram +. r.Common.dram_ms;
            blits := !blits +. r.Common.grids_ms;
            epilogue := !epilogue +. r.Common.epilogue_ms;
            blit_rows := !blit_rows + r.Common.blit_rows;
            replay_lines := !replay_lines + r.Common.replay_lines;
            scaled := !scaled + r.Common.blocks_analytic;
            blocks := !blocks + r.Common.blocks)
      progs;
    o.round_updates <- !updates;
    o.round_requests <- !runs
  in
  Outcome.timed_rounds o ~seconds ~min_rounds:3 round;
  o.gstencils_geomean <- Stats.geomean (Hashtbl.fold (fun _ g acc -> g :: acc) model []);
  Outcome.count o "analytic.derive_s" (!derive /. 1000.0);
  Outcome.count o "analytic.dram_replay_s" (!dram /. 1000.0);
  Outcome.count o "analytic.grid_blits_s" (!blits /. 1000.0);
  Outcome.count o "analytic.epilogue_s" (!epilogue /. 1000.0);
  Outcome.count o "analytic.ns_per_blit_row"
    (if !blit_rows = 0 then 0.0 else !blits *. 1e6 /. float_of_int !blit_rows);
  Outcome.count o "analytic.ns_per_replay_line"
    (if !replay_lines = 0 then 0.0 else !dram *. 1e6 /. float_of_int !replay_lines);
  Outcome.count o "analytic.scaled_ratio" (Stats.ratio !scaled !blocks);
  (* Outside the timed region: scaled twins of the built-in stencils. *)
  o.dram_err <-
    List.fold_left
      (fun worst (p : Stencil.t) ->
        Float.max worst (Checks.analytic_twin o ~pool ~id:(p.name ^ " twin") p (twin_env ~tiny p) dev))
      0.0 builtins;
  Outcome.later_setups o ~setup ~teardown:(fun (p, _) -> Par.shutdown p)
