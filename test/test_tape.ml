(* Differential tests for the warp-batched tape engine: the closure
   interpreter ([Common.Ref]) is the reference; the tape engine (with
   tile-class address-stream memoization in the hybrid scheme) must
   produce bit-identical grids and counters at every jobs value. *)

open Hextile_gpusim
open Hextile_schemes
open Hextile_stencils
open Hextile_ir
module Check = Hextile_check
module Par = Hextile_par.Par
module Experiments = Hextile_experiments.Experiments

let test_env prog = fun p -> List.assoc p (Suite.test_params prog)

let compare_results name (ref_r : Common.result) (tape_r : Common.result) =
  Alcotest.(check (list (pair string int)))
    (name ^ ": counters")
    (Counters.to_assoc ref_r.counters)
    (Counters.to_assoc tape_r.counters);
  Alcotest.(check int) (name ^ ": updates") ref_r.updates tape_r.updates;
  Alcotest.(check int) (name ^ ": blocks") ref_r.blocks tape_r.blocks;
  Hashtbl.iter
    (fun aname g ->
      if not (Grid.equal g (Grid.find tape_r.grids aname)) then
        Alcotest.failf "%s: array %s differs between engines" name aname)
    ref_r.grids

let hybrid ?pool ~engine prog env = Hybrid_exec.run ?pool ~engine prog env Device.gtx470

(* Stronger than [compare_results]: the two runs must agree on
   [blocks_memoized] too. Used across jobs values, where the shared
   read-once/replay-many class table must change only who records a
   class, never how many blocks replay one. *)
let compare_identical name (a : Common.result) (b : Common.result) =
  Alcotest.(check (list (pair string int)))
    (name ^ ": counters")
    (Counters.to_assoc a.counters)
    (Counters.to_assoc b.counters);
  Alcotest.(check int) (name ^ ": updates") a.updates b.updates;
  Alcotest.(check int) (name ^ ": blocks") a.blocks b.blocks;
  Alcotest.(check int)
    (name ^ ": blocks_memoized")
    a.blocks_memoized b.blocks_memoized;
  Hashtbl.iter
    (fun aname g ->
      if not (Grid.equal g (Grid.find b.grids aname)) then
        Alcotest.failf "%s: array %s differs across jobs values" name aname)
    a.grids

(* Table 3 (plus the extra suite programs) on the hybrid scheme, at jobs
   1, 2 and 4: the memoized tape engine against the closure reference. *)
let test_hybrid_table3 () =
  List.iter
    (fun prog ->
      let env = test_env prog in
      let ref_r = hybrid ~engine:Common.Ref prog env in
      let seq = hybrid ~engine:Common.Tape prog env in
      compare_results (prog.Stencil.name ^ "/jobs1") ref_r seq;
      List.iter
        (fun jobs ->
          Par.with_pool ~jobs (fun pool ->
              let r = hybrid ~pool ~engine:Common.Tape prog env in
              compare_results (Fmt.str "%s/jobs%d" prog.Stencil.name jobs) ref_r r))
        [ 2; 4 ])
    Suite.all

(* The classical-tiling executors share the batched exec_stmt_row /
   copy-in / copy-out paths; one representative per executor — except
   Overtile, whose block-store path runs on every suite program (plus
   fdtd2d with a taller time tile over a narrow output tile), tape
   against the closure reference and the tape engine at jobs 2 and 4
   against jobs 1. *)
let test_other_schemes () =
  let check name run prog =
    let env = test_env prog in
    compare_results name (run Common.Ref prog env) (run Common.Tape prog env)
  in
  check "ppcg" (fun engine p e -> Ppcg.run ~engine p e Device.gtx470) Suite.jacobi2d;
  check "par4all" (fun engine p e -> Par4all.run ~engine p e Device.gtx470) Suite.jacobi2d;
  check "split"
    (fun engine p e -> Split_tiling.run ~engine p e Device.gtx470)
    Suite.heat1d;
  let overtile ?pool ?config ~engine prog =
    Overtile.run ?pool ?config ~engine prog (test_env prog) Device.gtx470
  in
  List.iter
    (fun (label, config, prog) ->
      let seq = overtile ?config ~engine:Common.Tape prog in
      compare_results ("overtile/" ^ label)
        (overtile ?config ~engine:Common.Ref prog)
        seq;
      List.iter
        (fun jobs ->
          Par.with_pool ~jobs (fun pool ->
              compare_identical
                (Fmt.str "overtile/%s/jobs%d vs jobs1" label jobs)
                seq
                (overtile ~pool ?config ~engine:Common.Tape prog)))
        [ 2; 4 ])
    (("fdtd2d-hh3-8x32", Some { Overtile.hh = 3; tile = Some [| 8; 32 |] }, Suite.fdtd2d)
    :: List.map (fun (p : Stencil.t) -> (p.name, None, p)) Suite.all)

(* Rename every array of a program ([names] in declaration order). *)
let rename_arrays (p : Stencil.t) names =
  let map =
    List.combine (List.map (fun (a : Stencil.array_decl) -> a.aname) p.arrays) names
  in
  let acc (a : Stencil.access) = { a with array = List.assoc a.array map } in
  let rec fexpr : Stencil.fexpr -> Stencil.fexpr = function
    | Read a -> Read (acc a)
    | Fconst _ as c -> c
    | Bin (o, x, y) -> Bin (o, fexpr x, fexpr y)
    | Neg x -> Neg (fexpr x)
  in
  {
    p with
    arrays =
      List.map
        (fun (a : Stencil.array_decl) -> { a with aname = List.assoc a.aname map })
        p.arrays;
    stmts =
      List.map
        (fun (s : Stencil.stmt) -> { s with write = acc s.write; rhs = fexpr s.rhs })
        p.stmts;
  }

(* Arrays are placed in declaration order, and every scheme keys its
   per-block (array, slot) boxes, copy-in and copy-out by declaration
   order too, so renaming the arrays must not move any counter. On the
   scaled device the L2 is small enough that a name-dependent order
   shows in the DRAM counters of programs that copy in several
   (array, slot) pairs: fdtd2d's three arrays, and the two or three
   storage slots of the single-array programs. *)
let test_counters_name_independent () =
  let dev prog params = Experiments.scaled_device Device.gtx470 prog params in
  let counters params run prog =
    let env p = List.assoc p params in
    Counters.to_assoc (run prog env (dev prog params) : Common.result).counters
  in
  let schemes =
    [
      ("hybrid", fun p e d -> Hybrid_exec.run p e d);
      ("hybrid-analytic", fun p e d -> Hybrid_exec.run ~analytic:true p e d);
      ("ppcg", fun p e d -> Ppcg.run p e d);
      ("par4all", fun p e d -> Par4all.run p e d);
      ("overtile", fun p e d -> Overtile.run p e d);
    ]
  and split = [ ("split", fun p e d -> Split_tiling.run p e d) ] in
  let one = [ [ "B" ]; [ "u" ]; [ "arrkxte" ]; [ "zz" ] ] in
  let n2 = [ ("N", 48); ("T", 12) ] in
  List.iter
    (fun (prog, params, schemes, renamings) ->
      List.iter
        (fun (scheme, run) ->
          let base = counters params run prog in
          List.iter
            (fun names ->
              Alcotest.(check (list (pair string int)))
                (Fmt.str "%s %s counters, arrays %s" prog.Stencil.name scheme
                   (String.concat "," names))
                base
                (counters params run (rename_arrays prog names)))
            renamings)
        schemes)
    [
      ( Suite.fdtd2d,
        n2,
        schemes,
        [
          [ "hz"; "ex"; "ey" ];
          [ "arrq"; "arrb"; "arrz" ];
          [ "arrkxte"; "arrmuwa"; "arrpjdh" ];
          [ "u"; "v"; "w" ];
          [ "zz"; "yy"; "xx" ];
          [ "E_y"; "E_x"; "H_z" ];
        ] );
      (Suite.wave2d, n2, schemes, one);
      (Suite.laplacian2d, n2, schemes, one);
      (Suite.laplacian3d, [ ("N", 24); ("T", 6) ], schemes, one);
      (Suite.heat1d, [ ("N", 200); ("T", 12) ], split, one);
      (Suite.contrived, [ ("N", 200); ("T", 12) ], split, one);
    ]

(* Overtile's block body runs on the block store: its steady state must
   not allocate in proportion to the redundant halo compute. The
   hash-table store it replaced took ~930 minor words per update here;
   the budget leaves room for per-row bookkeeping only. *)
let test_overtile_allocation_budget () =
  let prog = Suite.laplacian2d in
  let env p = List.assoc p [ ("N", 48); ("T", 12) ] in
  let run () = Overtile.run ~engine:Common.Tape prog env Device.gtx470 in
  ignore (run ());
  let before = Gc.minor_words () in
  let r = run () in
  let per_update = (Gc.minor_words () -. before) /. float_of_int r.updates in
  if per_update > 150.0 then
    Alcotest.failf
      "overtile laplacian2d 48x48x12 allocated %.1f minor words per update \
       (budget 150)"
      per_update

(* The shared class table is the tape engine's one cross-domain data
   structure; this is the determinism contract head-on. Every suite
   program at jobs 1, 2 and 4: grids, every counter, the update count
   and [blocks_memoized] all bit-identical to the sequential run. *)
let test_shared_cache_determinism () =
  List.iter
    (fun prog ->
      let env = test_env prog in
      let seq = hybrid ~engine:Common.Tape prog env in
      List.iter
        (fun jobs ->
          Par.with_pool ~jobs (fun pool ->
              compare_identical
                (Fmt.str "%s/jobs%d vs jobs1" prog.Stencil.name jobs)
                seq
                (hybrid ~pool ~engine:Common.Tape prog env)))
        [ 2; 4 ])
    Suite.all

(* 25 fuzzed programs: random shapes (folded/in-place storage, multiple
   statements, asymmetric offsets, degenerate domains) through the
   hybrid scheme, engines compared at jobs 1 and 2 — plus a jobs=4 leg
   holding the parallel run to full [compare_identical] strictness
   against the sequential tape run. *)
let test_fuzzed () =
  let rng = Check.Rng.create 2024 in
  for i = 1 to 25 do
    let prog, env = Check.Gen.generate (Check.Rng.derive rng i) in
    let e p = List.assoc p env in
    let ref_r = hybrid ~engine:Common.Ref prog e in
    let t1 = hybrid ~engine:Common.Tape prog e in
    compare_results (Fmt.str "fuzz%d/jobs1" i) ref_r t1;
    Par.with_pool ~jobs:2 (fun pool ->
        compare_results
          (Fmt.str "fuzz%d/jobs2" i)
          ref_r
          (hybrid ~pool ~engine:Common.Tape prog e));
    Par.with_pool ~jobs:4 (fun pool ->
        compare_identical
          (Fmt.str "fuzz%d/jobs4 vs jobs1" i)
          t1
          (hybrid ~pool ~engine:Common.Tape prog e))
  done

(* The memoization must actually fire on an interior-heavy instance —
   otherwise the replay path is dead code and the suite proves nothing. *)
let test_memoization_fires () =
  let prog = Suite.jacobi2d in
  let env p = List.assoc p [ ("N", 64); ("T", 8) ] in
  let r = hybrid ~engine:Common.Tape prog env in
  if r.blocks_memoized = 0 then
    Alcotest.failf "no blocks memoized out of %d" r.blocks;
  compare_results "jacobi2d-64" (hybrid ~engine:Common.Ref prog env) r

(* With the sanitizer enabled the per-lane reference path must run (it
   needs per-lane thread identities): no memoized blocks, same grids. *)
let test_sanitizer_disables_memoization () =
  let prog = Suite.jacobi2d in
  let env p = List.assoc p [ ("N", 64); ("T", 8) ] in
  let plain = hybrid ~engine:Common.Tape prog env in
  Alcotest.(check bool) "memoizes without sanitizer" true (plain.blocks_memoized > 0);
  Sanitize.enable ();
  let r =
    Fun.protect ~finally:Sanitize.disable (fun () -> hybrid ~engine:Common.Tape prog env)
  in
  Alcotest.(check int) "no memoized blocks under sanitizer" 0 r.blocks_memoized;
  Hashtbl.iter
    (fun aname g ->
      if not (Grid.equal g (Grid.find plain.grids aname)) then
        Alcotest.failf "sanitized run: array %s differs" aname)
    r.grids

(* Members replay the representative's compiled rows at one word offset
   for every array, so memoization needs all arrays to share one s0
   stride. Here the read-only [C] is declared 8 wider than the written
   [A]: the hybrid scheme must run every block live (no memoized and,
   with [~analytic:true], no derived blocks) and still match the
   reference bit for bit at jobs 1 and 2. *)
let test_unequal_strides_run_live () =
  let src =
    {|float A[2][N][N];
float C[N+8][N+8];
for (t = 0; t < T; t++)
  for (i = 1; i < N - 1; i++)
    for (j = 1; j < N - 1; j++)
      A[(t+1)%2][i][j] = 0.25f * (A[t%2][i+1][j] + A[t%2][i-1][j] +
        C[i][j+1] + C[i][j-1]);
|}
  in
  let prog =
    match Hextile_frontend.Front.parse_string ~name:"strides" src with
    | Ok p -> p
    | Error m -> Alcotest.failf "parse error: %s" m
  in
  let env p = List.assoc p [ ("N", 64); ("T", 8) ] in
  let ref_r = hybrid ~engine:Common.Ref prog env in
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun pool ->
          let name = Fmt.str "strides/jobs%d" jobs in
          let r = hybrid ~pool ~engine:Common.Tape prog env in
          compare_results name ref_r r;
          Alcotest.(check int) (name ^ ": blocks_memoized") 0 r.blocks_memoized;
          let a = Hybrid_exec.run ~pool ~analytic:true prog env Device.gtx470 in
          compare_results (name ^ "/analytic") ref_r a;
          Alcotest.(check int) (name ^ ": blocks_analytic") 0 a.blocks_analytic))
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "hybrid tape vs ref, suite, jobs 1/2/4" `Quick
      test_hybrid_table3;
    Alcotest.test_case "classical schemes tape vs ref" `Quick test_other_schemes;
    Alcotest.test_case "shared class table: bit-identical at jobs 1/2/4" `Quick
      test_shared_cache_determinism;
    Alcotest.test_case "hybrid tape vs ref, 25 fuzzed programs" `Quick test_fuzzed;
    Alcotest.test_case "tile-class memoization fires" `Quick test_memoization_fires;
    Alcotest.test_case "sanitizer forces uncached execution" `Quick
      test_sanitizer_disables_memoization;
    Alcotest.test_case "overtile block execution allocation budget" `Quick
      test_overtile_allocation_budget;
    Alcotest.test_case "unequal s0 strides run live" `Quick
      test_unequal_strides_run_live;
    Alcotest.test_case "counters independent of array names" `Quick
      test_counters_name_independent;
  ]
