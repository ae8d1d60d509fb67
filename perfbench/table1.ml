(* table1-schemes: the Table 1 grid — every Table 3 stencil under PPCG,
   Par4All, Overtile and the hybrid scheme on the scaled GTX 470, one
   cell at a time over a two-domain pool (so each launch takes the
   launch-level parallel path, as under [hextile run -j 2]), every cell
   checked against one reference interpretation per stencil. Exact
   simulation and reference verification do the work; the analytic
   epilogue and the serve layer do none. *)

open Hextile_ir
open Layers
module Device = Hextile_gpusim.Device

let schemes = Experiments.[ Hybrid; Ppcg; Par4all; Overtile ]

(* Scaled instances: small enough that a round of all 28 cells takes a
   few seconds, large enough that simulation, not per-run set-up,
   dominates each cell. *)
let sizes ~tiny (p : Stencil.t) =
  match (Stencil.spatial_dims p, tiny) with
  | 2, false -> [ ("N", 48); ("T", 12) ]
  | _, false -> [ ("N", 24); ("T", 6) ]
  | 2, true -> [ ("N", 16); ("T", 4) ]
  | _, true -> [ ("N", 8); ("T", 2) ]

let run o ~seed ~seconds ~tiny =
  let rng = Inputs.Rng.create seed in
  let dev = Device.gtx470 in
  let order = Inputs.shuffle rng Hextile_stencils.Suite.table3 in
  let sources =
    List.map (fun (p : Stencil.t) -> (p.name, Inputs.renamed_source rng p)) order
  in
  let scheme_order = Inputs.shuffle rng schemes in
  let setup ~first =
    let pool = Par.create ~jobs:Outcome.jobs in
    let progs =
      List.map
        (fun (name, src) ->
          match compile ~pool ~name src with
          | Ok c -> (name, c)
          | Error m -> failwith ("table1-schemes set-up: " ^ m))
        sources
    in
    if first then
      List.iter (fun (k, v) -> Outcome.count o k v) (compile_counts (List.map (fun (_, c) -> c) progs));
    (* Warm-up: every cell once at a tiny size compiles and caches the
       statement tapes the timed rounds use. *)
    Trace.untraced (fun () ->
        List.iter
          (fun (_, (c : compiled)) ->
            List.iter
              (fun s -> ignore (simulate ~pool ~id:"warm-up" s c.prog (sizes ~tiny:true c.prog) dev))
              schemes)
          progs);
    (pool, progs)
  in
  let pool, progs = Outcome.repeat_setup o ~setup ~teardown:(fun (p, _) -> Par.shutdown p) in
  Fun.protect ~finally:(fun () -> Par.shutdown pool) @@ fun () ->
  (* Simulated GStencils/s of every cell in the first round; later
     rounds must repeat them exactly. *)
  let model = Hashtbl.create 32 in
  let memo = ref (0, 0) in
  let round k =
    let updates = ref 0 and cells = ref 0 in
    Trace.with_span ~kind:Trace.Frame "round" ~id:(string_of_int k) @@ fun () ->
    List.iter
      (fun (name, (c : compiled)) ->
        let prog = c.prog in
        let env = sizes ~tiny prog in
        let r0 = Outcome.now () in
        let reference = reference ~id:name prog env in
        Outcome.op o ("reference/" ^ name) (Outcome.now () -. r0);
        List.iter
          (fun s ->
            let cell = name ^ "/" ^ Experiments.scheme_name s in
            let id = Printf.sprintf "%s/%d" cell k in
            let c0 = Outcome.now () in
            match simulate ~pool ~id s prog env dev with
            | exception e ->
                Outcome.attempt o;
                Outcome.fail o (id ^ ": " ^ Printexc.to_string e)
            | r ->
                let ok = matches_reference ~id ~reference prog env r in
                let dt = Outcome.now () -. c0 in
                Outcome.op o cell dt;
                Outcome.latency o cell (1000.0 *. dt);
                let g = Common.gstencils_per_s r in
                let g0 = Option.value (Hashtbl.find_opt model cell) ~default:g in
                Hashtbl.replace model cell g0;
                Outcome.check o (ok && g = g0)
                  (id ^ ": grids or instance count differ from the reference, or the \
                         simulated GStencils/s changed between rounds");
                updates := !updates + r.Common.updates;
                Outcome.add_updates o (scheme_layer s) r.Common.updates;
                Outcome.add_updates o "verify" r.Common.updates;
                incr cells;
                if k = 0 && s = Experiments.Hybrid then begin
                  let m, b = !memo in
                  memo := (m + r.Common.blocks_memoized, b + r.Common.blocks)
                end)
          scheme_order)
      progs;
    o.round_updates <- !updates;
    o.round_requests <- !cells
  in
  Outcome.timed_rounds o ~seconds ~min_rounds:4 round;
  o.gstencils_geomean <- Stats.geomean (Hashtbl.fold (fun _ g acc -> g :: acc) model []);
  Outcome.count o "sim.hybrid.memo_ratio" (Stats.ratio (fst !memo) (snd !memo));
  (* Outside the timed region: analytic twins of the built-in stencils
     at the full cell sizes (at tiny sizes no DRAM traffic is left to
     get wrong). *)
  o.dram_err <-
    List.fold_left
      (fun worst (p : Stencil.t) ->
        Float.max worst (Checks.analytic_twin o ~pool ~id:p.name p (sizes ~tiny:false p) dev))
      0.0 Hextile_stencils.Suite.table3;
  Outcome.later_setups o ~setup ~teardown:(fun (p, _) -> Par.shutdown p)
