open Hextile_ir
open Hextile_util
open Hextile_deps
open Hextile_tiling
open Hextile_gpusim
open Hextile_schemes

type cell_diff = {
  c_array : string;
  c_index : int array;
  c_expected : float;
  c_got : float;
}

type failure =
  | Mismatch of {
      scheme : string;
      ndiffs : int;
      diffs : cell_diff list;
      updates_got : int;
      updates_want : int;
    }
  | Crash of { scheme : string; error : string }
  | Sanitizer of {
      scheme : string;
      findings : Sanitize.finding list;
      dropped : int;
    }

let scheme_of_failure = function
  | Mismatch { scheme; _ } | Crash { scheme; _ } | Sanitizer { scheme; _ } ->
      scheme

let kind_of_failure = function
  | Mismatch _ -> "mismatch"
  | Crash _ -> "crash"
  | Sanitizer _ -> "sanitizer"

let pp_failure ppf = function
  | Mismatch { scheme; ndiffs; diffs; updates_got; updates_want } ->
      Fmt.pf ppf "@[<v2>%s: %d cell(s) differ from the interpreter" scheme
        ndiffs;
      List.iter
        (fun d ->
          Fmt.pf ppf "@,%s[%a]: expected %.17g, got %.17g" d.c_array
            Fmt.(array ~sep:(any ",") int)
            d.c_index d.c_expected d.c_got)
        diffs;
      if updates_got <> updates_want then
        Fmt.pf ppf "@,updates: expected %d, got %d" updates_want updates_got;
      Fmt.pf ppf "@]"
  | Crash { scheme; error } -> Fmt.pf ppf "%s: crashed: %s" scheme error
  | Sanitizer { scheme; findings; dropped } ->
      Fmt.pf ppf "@[<v2>%s: sanitizer reported %d finding(s)%s" scheme
        (List.length findings + dropped)
        (if dropped > 0 then Fmt.str " (%d not recorded)" dropped else "");
      List.iter (fun f -> Fmt.pf ppf "@,%a" Sanitize.pp_finding f) findings;
      Fmt.pf ppf "@]"

(* ---- runner configurations -------------------------------------------- *)

(* Smallest tile height compatible with Hybrid.make's (h+1) mod k = 0. *)
let hybrid_h ~k =
  let rec go h = if (h + 1) mod k = 0 then h else go (h + 1) in
  go 1

let hybrid_config prog =
  let k = List.length prog.Stencil.stmts in
  let dims = Stencil.spatial_dims prog in
  let h = hybrid_h ~k in
  let cone = Cone.of_deps (Dep.analyze prog) ~dim:0 in
  let w0 = max (Hexagon.min_w0 ~h cone) 2 in
  (* modest widths: exercise multi-tile execution even at small N *)
  let w =
    match dims with
    | 1 -> [| w0 |]
    | 2 -> [| w0; 16 |]
    | _ -> Array.append [| w0; 4 |] (Array.make (dims - 2) 16)
  in
  {
    Hybrid_exec.h;
    w;
    threads = 64;
    strategy = Hybrid_exec.best_strategy;
    register_tile = false;
  }

let split_config prog =
  let hh = 4 in
  let cone = Cone.of_deps (Dep.analyze prog) ~dim:0 in
  let r = max 1 (Rat.ceil (Rat.max cone.delta0 cone.delta1)) in
  { Split_tiling.hh; width = max 64 ((2 * r * hh) + 8) }

type runner = {
  rname : string;
  sanitize : bool;  (** run under the gpusim race/barrier sanitizer *)
  run :
    ?pool:Hextile_par.Par.pool ->
    Stencil.t ->
    (string -> int) ->
    Device.t ->
    Common.result;
}

(* The sanitizer only understands the hybrid pipeline's barrier structure
   (a __syncthreads after every time step); overtile/ppcg separate their
   phases by kernel launch boundaries instead, which the word table
   already resets on, but their shared instrumentation issues no
   inter-statement barriers — so only the hybrid runners opt in. The
   sanitizer forces per-lane execution and live launches, so
   "hybrid-tape" runs the same configuration unsanitized: the batched
   tape engine with tile-class memoization. *)
let runners prog =
  let k = List.length prog.Stencil.stmts in
  let dims = Stencil.spatial_dims prog in
  let hybrid ?pool p env dev =
    Hybrid_exec.run ?pool ~config:(hybrid_config p) p env dev
  in
  let base =
    [
      { rname = "hybrid"; sanitize = true; run = hybrid };
      { rname = "hybrid-tape"; sanitize = false; run = hybrid };
      {
        rname = "hybrid-global";
        sanitize = true;
        run =
          (fun ?pool p env dev ->
            let config =
              {
                (hybrid_config p) with
                Hybrid_exec.strategy = Hybrid_exec.strategy_of_step 'a';
              }
            in
            Hybrid_exec.run ?pool ~config p env dev);
      };
      {
        rname = "ppcg";
        sanitize = false;
        run = (fun ?pool p env dev -> Ppcg.run ?pool p env dev);
      };
      {
        rname = "par4all";
        sanitize = false;
        run = (fun ?pool p env dev -> Par4all.run ?pool p env dev);
      };
      {
        rname = "overtile";
        sanitize = false;
        run = (fun ?pool p env dev -> Overtile.run ?pool p env dev);
      };
    ]
  in
  if dims = 1 && k = 1 then
    base
    @ [
        {
          rname = "split";
          sanitize = false;
          run =
            (fun ?pool p env dev ->
              Split_tiling.run ?pool ~config:(split_config p) p env dev);
        };
      ]
  else base

let scheme_names prog = List.map (fun r -> r.rname) (runners prog)

let all_scheme_names =
  [
    "hybrid"; "hybrid-tape"; "hybrid-global"; "ppcg"; "par4all"; "overtile";
    "split";
  ]

(* ---- comparison ------------------------------------------------------- *)

let max_reported_diffs = 4

let decode_index dims flat =
  let n = Array.length dims in
  let idx = Array.make n 0 in
  let rest = ref flat in
  for d = n - 1 downto 0 do
    idx.(d) <- !rest mod dims.(d);
    rest := !rest / dims.(d)
  done;
  idx

let compare_grids prog (reference : (string, Grid.t) Hashtbl.t)
    (got : (string, Grid.t) Hashtbl.t) =
  let ndiffs = ref 0 in
  let diffs = ref [] in
  List.iter
    (fun (a : Stencil.array_decl) ->
      let gref = Grid.find reference a.aname in
      let ggot = Grid.find got a.aname in
      Array.iteri
        (fun i expected ->
          let actual = ggot.Grid.data.(i) in
          (* bit compare: NaN = NaN, and no tolerance to hide drift *)
          if Int64.bits_of_float expected <> Int64.bits_of_float actual then begin
            incr ndiffs;
            if List.length !diffs < max_reported_diffs then
              diffs :=
                {
                  c_array = a.aname;
                  c_index = decode_index gref.Grid.dims i;
                  c_expected = expected;
                  c_got = actual;
                }
                :: !diffs
          end)
        gref.Grid.data)
    prog.Stencil.arrays;
  (!ndiffs, List.rev !diffs)

let run_one ?pool runner prog env dev ~updates_want ~reference =
  let failures = ref [] in
  let outcome =
    if runner.sanitize then begin
      Sanitize.reset ();
      Sanitize.enable ();
      Fun.protect
        ~finally:(fun () -> Sanitize.disable ())
        (fun () ->
          let r = try Ok (runner.run ?pool prog env dev) with e -> Error e in
          let findings = Sanitize.findings () in
          if findings <> [] then
            failures :=
              Sanitizer
                {
                  scheme = runner.rname;
                  findings;
                  dropped = Sanitize.dropped ();
                }
              :: !failures;
          r)
    end
    else try Ok (runner.run ?pool prog env dev) with e -> Error e
  in
  (match outcome with
  | Error e ->
      failures :=
        Crash { scheme = runner.rname; error = Printexc.to_string e }
        :: !failures
  | Ok (r : Common.result) ->
      let ndiffs, diffs = compare_grids prog reference r.grids in
      if ndiffs > 0 || r.updates <> updates_want then
        failures :=
          Mismatch
            {
              scheme = runner.rname;
              ndiffs;
              diffs;
              updates_got = r.updates;
              updates_want;
            }
          :: !failures);
  List.rev !failures

let envf_of_bindings env p =
  match List.assoc_opt p env with
  | Some v -> v
  | None -> invalid_arg ("Oracle: unbound parameter " ^ p)

(* Direct per-scheme entry for the determinism tests: same runner
   configurations as [check], no oracle comparison, no sanitizer. *)
let run_scheme ?pool name prog env dev =
  match List.find_opt (fun r -> r.rname = name) (runners prog) with
  | None ->
      Error
        (Fmt.str "unknown scheme %s (available: %a)" name
           Fmt.(list ~sep:comma string)
           (scheme_names prog))
  | Some r -> (
      try Ok (r.run ?pool prog (envf_of_bindings env) dev)
      with e -> Error (Printexc.to_string e))

let check ?pool ?mutate ?schemes prog env dev =
  let envf = envf_of_bindings env in
  let all = runners prog in
  let known n = List.exists (fun r -> r.rname = n) all in
  let bad_names =
    List.filter (fun n -> not (known n))
      (Option.value schemes ~default:[] @ Option.to_list mutate)
  in
  if bad_names <> [] then
    Error
      (Fmt.str "unknown scheme(s) %a (available: %a)"
         Fmt.(list ~sep:comma string)
         bad_names
         Fmt.(list ~sep:comma string)
         (scheme_names prog))
  else
    let selected =
      match schemes with
      | None -> all
      | Some names -> List.filter (fun r -> List.mem r.rname names) all
    in
    let mutated =
      match mutate with
      | None -> Ok None
      | Some _ -> (
          match Gen.flip_offset prog with
          | Some p -> Ok (Some p)
          | None -> Error "program has no nonzero read offset to flip")
    in
    match mutated with
    | Error m -> Error m
    | Ok mutated ->
        (* ground truth always comes from the unmutated program *)
        let reference = Interp.run prog envf in
        let updates_want = Interp.stencil_updates prog envf in
        Ok
          (List.concat_map
             (fun r ->
               let p =
                 match (mutate, mutated) with
                 | Some m, Some prog' when m = r.rname -> prog'
                 | _ -> prog
               in
               run_one ?pool r p envf dev ~updates_want ~reference)
             selected)
