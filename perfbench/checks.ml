(* The analytic-mode check shared by every workload. *)

open Hextile_ir
module Experiments = Hextile_experiments.Experiments
module Common = Hextile_schemes.Common
module Counters = Hextile_gpusim.Counters

let dram_keys = [ "dram_read_transactions"; "dram_write_transactions" ]

let split (c : Counters.t) =
  List.partition (fun (k, _) -> List.mem k dram_keys) (Counters.to_assoc c)

let rel a e = float_of_int (abs (a - e)) /. float_of_int (max 1 e)

(* Run the hybrid scheme on [prog] exactly and in analytic mode, check
   that grids, instance counts and every non-DRAM counter are
   bit-identical and that the DRAM error stays within
   [Analytic.dram_error_bound], and return the worst relative DRAM
   error. Simulated DRAM counts depend on array names (shared-memory
   layouts are built by iterating hash tables keyed by them), so callers
   pass the built-in programs, whose names do not depend on the seed. *)
let analytic_twin o ~pool ~id prog env dev =
  let run analytic =
    Experiments.run_scheme ~pool ~analytic ~verify:false Experiments.Hybrid prog env dev
  in
  let exact = run false and an = run true in
  let same_grids =
    Hashtbl.fold
      (fun name g ok -> ok && Grid.equal g (Grid.find an.Common.grids name))
      exact.Common.grids true
  in
  let dram_e, rest_e = split exact.Common.counters and dram_a, rest_a = split an.Common.counters in
  Outcome.check o
    (same_grids && an.Common.updates = exact.Common.updates && rest_a = rest_e)
    (id ^ ": analytic twin differs from the exact engine");
  let err =
    List.fold_left2 (fun worst (_, e) (_, a) -> Float.max worst (rel a e)) 0.0 dram_e dram_a
  in
  Outcome.check o
    (err <= Hextile_gpusim.Analytic.dram_error_bound)
    (Printf.sprintf "%s: analytic DRAM error %g exceeds the documented bound" id err);
  err
