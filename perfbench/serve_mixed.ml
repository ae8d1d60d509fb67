(* serve-mixed: one closed-loop client driving the in-process daemon
   ([Daemon.run_lines] over one pool) with a seeded request stream, one
   wave of four lines at a time: the next wave is sent when the last
   reply of the previous one has arrived.

   A session is one daemon lifetime: a fresh cache over the whole
   stream. Every session replays the same stream, so the cache sees the
   same hits and misses in each, hit ratios repeat exactly, and the
   heap does not grow with the number of sessions a run fits in.

   Each wave holds one costly run miss, from a fixed list of fifteen
   (hybrid on every Table 3 stencil, seven comparator runs, one small
   analytic run), and three light lines from a seeded deck: repeats of
   earlier requests (cache hits, chosen with Zipf-like popularity),
   tile-size and compile requests (Zipf-like over the Table 3 builtins,
   seeded alpha-renamed copies of them and seeded generated sources),
   runs of generated sources, and malformed lines. The seed picks names,
   order and popularity; the fixed costly list keeps a session's cost
   the same under every seed. No two lines of a wave touch the same
   program, so no two pool workers race on one cache entry and the
   cache counts do not depend on scheduling. *)

open Hextile_ir
open Layers
module Json = Hextile_obs.Json
module Device = Hextile_gpusim.Device
module Suite = Hextile_stencils.Suite
module Rng = Inputs.Rng

type prog = Builtin of string | Source of string

type req = {
  op : string;
  prog : prog;
  n : int;
  t : int;
  scheme : string;
  analytic : bool;
}

type line = Good of req * int  (** request, program family *) | Bad of (int -> string)

let line_text id = function
  | Bad f -> f id
  | Good (r, _) ->
      let program =
        match r.prog with Builtin b -> ("builtin", Json.Str b) | Source s -> ("source", Json.Str s)
      in
      let run_fields =
        if r.op <> "run" then []
        else
          ("scheme", Json.Str r.scheme)
          :: (if r.analytic then [ ("analytic", Json.Bool true) ] else [])
      in
      Json.to_string ~minify:true
        (Json.Obj
           ([ ("id", Json.Int id); ("op", Json.Str r.op); program; ("N", Json.Int r.n); ("T", Json.Int r.t) ]
           @ run_fields))

(* Lines every daemon must answer with an error. *)
let bad_lines =
  [|
    (fun id -> Printf.sprintf "{\"id\": %d, \"op\": \"run\", \"builtin\": \"heat2d\"" id);
    (fun id -> Printf.sprintf "{\"id\": %d, \"op\": \"frobnicate\"}" id);
    (fun id -> Printf.sprintf "{\"id\": %d, \"op\": \"run\"}" id);
    (fun id -> Printf.sprintf "{\"id\": %d, \"op\": \"run\", \"builtin\": \"nosuch2d\"}" id);
    (fun id ->
      Printf.sprintf "{\"id\": %d, \"op\": \"run\", \"builtin\": \"heat2d\", \"scheme\": \"diamond\"}" id);
    (fun id ->
      Printf.sprintf "{\"id\": %d, \"op\": \"tilesize\", \"source\": \"for (t = 0; t < T; t++) {\"}" id);
    (fun _ -> "this is not json");
  |]

let table3 = Array.of_list Suite.table3

(* The costly run misses, one per wave: (Table 3 index, N, T, scheme,
   analytic). Sizes are chosen so that each costs about 0.15-0.2 s on
   one domain of a two-core host, well above the light lines sharing
   its wave, so a wave's latency is set by its costly line whatever the
   seed pairs it with. Fifteen waves put the median and the p90 of the
   latencies inside one wave's samples (the middle wave's and the
   second slowest's) rather than on the edge between two. *)
let heavy ~tiny =
  let idx name =
    let rec go i = if table3.(i).Stencil.name = name then i else go (i + 1) in
    go 0
  in
  let l =
    [
      ("laplacian2d", 96, 16, "hybrid", false);
      ("heat2d", 80, 16, "hybrid", false);
      ("gradient2d", 64, 16, "hybrid", false);
      ("fdtd2d", 80, 16, "hybrid", false);
      ("laplacian3d", 24, 8, "hybrid", false);
      ("heat3d", 16, 8, "hybrid", false);
      ("gradient3d", 16, 10, "hybrid", false);
      ("laplacian2d", 104, 16, "ppcg", false);
      ("heat2d", 80, 16, "par4all", false);
      ("gradient2d", 48, 12, "overtile", false);
      ("laplacian2d", 384, 96, "hybrid", true);
      ("laplacian3d", 24, 8, "ppcg", false);
      ("gradient3d", 16, 10, "par4all", false);
      ("fdtd2d", 36, 12, "overtile", false);
      ("heat3d", 12, 8, "overtile", false);
    ]
  in
  List.map
    (fun (name, n, t, scheme, analytic) ->
      let n, t = if tiny then (max 8 (n / 4), max 2 (t / 4)) else (n, t) in
      (idx name, n, t, scheme, analytic))
    l

(* Twin of the analytic line, checked against the exact engine. *)
let analytic_twin_env ~tiny = if tiny then [ ("N", 64); ("T", 8) ] else [ ("N", 128); ("T", 16) ]

let n_gen = 3
let wave_size = 4

(* The seeded stream, as waves of lines. *)
let generate ~seed ~tiny =
  let rng = Rng.create seed in
  let nt = Array.length table3 in
  (* Each Table 3 program is requested by builtin name or as one of two
     seeded alpha-renamed sources; generated programs come as source. *)
  let variants =
    Array.map (fun p -> [| Inputs.renamed_source rng p; Inputs.renamed_source rng p |]) table3
  in
  (* Generated programs keep in bounds at every valuation; they run at
     one small fixed one so that their cost does not swing with the
     seed. *)
  let gens =
    Array.init n_gen (fun k ->
        let p, _ = Hextile_check.Gen.generate (Rng.derive rng k) in
        (Hextile_check.Pretty.to_source p, 8, 4))
  in
  let form i = match Rng.int rng 3 with 0 -> Builtin table3.(i).Stencil.name | v -> Source variants.(i).(v - 1) in
  (* Compile requests check legality by enumerating the instance space,
     which costs seconds at the run sizes; tile-size and compile
     requests therefore use small instances. *)
  let small_env i = if Stencil.spatial_dims table3.(i) = 2 then (16, 4) else (8, 4) in
  let program_req op fam =
    if fam < nt then
      let n, t = small_env fam in
      { op; prog = form fam; n; t; scheme = "hybrid"; analytic = false }
    else
      let src, n, t = gens.(fam - nt) in
      { op; prog = Source src; n; t; scheme = "hybrid"; analytic = false }
  in
  let popularity = Array.of_list (Inputs.shuffle rng (List.init (nt + n_gen) Fun.id)) in
  let heavy_reqs =
    List.map
      (fun (i, n, t, scheme, analytic) -> ({ op = "run"; prog = form i; n; t; scheme; analytic }, i))
      (heavy ~tiny)
  in
  let heavy_lines = Inputs.shuffle rng (List.map (fun (r, i) -> Good (r, i)) heavy_reqs) in
  let deck =
    Inputs.shuffle rng
      (List.concat
         [
           List.init 15 (fun _ -> `Repeat);
           List.init 9 (fun _ -> `Op "tilesize");
           List.init 8 (fun _ -> `Op "compile");
           List.init 6 (fun _ -> `Gen_run);
           List.init 7 (fun _ -> `Bad);
         ])
  in
  let earlier = ref [] (* (priority, line) of good lines in finished waves *) in
  let rec draw_family used tries =
    let f = popularity.(Inputs.zipf rng (Array.length popularity)) in
    if not (List.mem f used) then Some f else if tries = 0 then None else draw_family used (tries - 1)
  in
  let instantiate used = function
    | `Bad -> Some (Bad bad_lines.(Rng.int rng (Array.length bad_lines)))
    | `Op op -> Option.map (fun f -> Good (program_req op f, f)) (draw_family used 50)
    | `Gen_run -> (
        match List.filter (fun k -> not (List.mem (nt + k) used)) (List.init n_gen Fun.id) with
        | [] -> None
        | ks ->
            let k = Rng.pick rng ks in
            Some (Good (program_req "run" (nt + k), nt + k)))
    | `Repeat -> (
        let fits = List.filter (function _, Good (_, f) -> not (List.mem f used) | _ -> false) !earlier in
        match List.sort compare fits with
        | [] -> None
        | l -> Some (snd (List.nth l (Inputs.zipf rng (List.length l)))))
  in
  let rec fill used acc deck skipped =
    if List.length acc = wave_size - 1 then (List.rev acc, List.rev_append skipped deck)
    else
      match deck with
      | [] -> (List.rev acc, List.rev skipped)
      | d :: rest -> (
          match instantiate used d with
          | None -> fill used acc rest (d :: skipped)
          | Some l ->
              let used = match l with Good (_, f) -> f :: used | Bad _ -> used in
              fill used (l :: acc) rest skipped)
  in
  let waves, leftover =
    List.fold_left
      (fun (waves, deck) h ->
        let fam = match h with Good (_, f) -> f | Bad _ -> -1 in
        let lights, deck = fill [ fam ] [] deck [] in
        let wave = h :: lights in
        List.iter
          (function Good _ as l -> earlier := (Rng.int rng 1_000_000, l) :: !earlier | Bad _ -> ())
          wave;
        (wave :: waves, deck))
      ([], deck) heavy_lines
  in
  (* The deck has three lines for each wave and, over thousands of seeds
     tried, always fits; a seed for which it does not is refused rather
     than given a different mix. *)
  if leftover <> [] then failwith (Printf.sprintf "seed %d: the request deck does not fit the waves" seed);
  let waves = List.rev waves in
  (waves, List.map fst heavy_reqs)

(* Number every line of the stream; ids are line indices. *)
let numbered waves =
  let i = ref (-1) in
  List.map (List.map (fun l -> incr i; (!i, l))) waves

(* One daemon lifetime over the stream; returns the reply lines by
   line index (empty when a line got no reply). *)
let session o ~pool ~waves ~nlines ~sid =
  let cache = Cache.create () in
  let replies = Array.make nlines "" in
  List.iteri
    (fun w lines ->
      let pending = ref (List.map (fun (i, l) -> line_text i l) lines) in
      let out = ref [] in
      let read_line () =
        match !pending with [] -> None | l :: rest -> pending := rest; Some l
      in
      let write_line s = out := (Outcome.now (), s) :: !out in
      let t0 = Outcome.now () in
      serve_wave ~id:(Printf.sprintf "%d/%d" sid w) ~cache ~pool ~read_line ~write_line;
      Outcome.op o ("wave" ^ string_of_int w) (Outcome.now () -. t0);
      let got = List.rev !out in
      List.iteri
        (fun j (i, _) ->
          match List.nth_opt got j with
          | Some (t, s) ->
              replies.(i) <- s;
              Outcome.latency o ("line" ^ string_of_int i) (1000.0 *. (t -. t0))
          | None -> ())
        lines)
    waves;
  (replies, Cache.stats cache)

let scheme_of = function
  | "hybrid" -> Experiments.Hybrid
  | "ppcg" -> Experiments.Ppcg
  | "par4all" -> Experiments.Par4all
  | "overtile" -> Experiments.Overtile
  | s -> invalid_arg ("scheme " ^ s)

let member k j = Option.bind j (Json.member k)

let run o ~seed ~seconds ~tiny =
  let dev = Device.gtx470 in
  let waves, heavy_reqs = generate ~seed ~tiny in
  let waves = numbered waves in
  let lines = List.concat waves in
  let nlines = List.length lines in
  (* Warm-up: the same stream at tiny sizes, through a throwaway cache,
     compiles and caches the statement tapes of every program in it. *)
  let warm_waves = numbered (fst (generate ~seed ~tiny:true)) in
  let warm_lines = List.length (List.concat warm_waves) in
  let setup ~first:_ =
    let pool = Par.create ~jobs:Outcome.jobs in
    Trace.untraced (fun () ->
        ignore (session (Outcome.create ()) ~pool ~waves:warm_waves ~nlines:warm_lines ~sid:(-1)));
    pool
  in
  let pool = Outcome.repeat_setup o ~setup ~teardown:Par.shutdown in
  Fun.protect ~finally:(fun () -> Par.shutdown pool) @@ fun () ->
  let sessions = ref [] in
  let round k =
    let replies, stats =
      Trace.with_span ~kind:Trace.Frame "session" ~id:(string_of_int k) (fun () ->
          session o ~pool ~waves ~nlines ~sid:k)
    in
    sessions := (replies, stats) :: !sessions
  in
  o.round_requests <- nlines;
  Outcome.timed_rounds o ~seconds ~min_rounds:3 round;
  (* Everything below is outside the timed region. *)
  let sessions = List.rev !sessions in
  let first, stats = List.hd sessions in
  let parsed = Array.map (fun s -> Result.to_option (Json.parse s)) first in
  (* Each line: one reply, ok exactly when the line is well-formed. *)
  List.iter
    (fun (i, l) ->
      let ok = Option.bind (member "ok" parsed.(i)) (function Json.Bool b -> Some b | _ -> None) in
      let id_ok =
        match (l, member "id" parsed.(i)) with
        | Good _, Some (Json.Int j) -> j = i
        | Good _, _ -> false
        | Bad _, Some (Json.Int j) -> j = i
        | Bad _, _ -> true
      in
      let want = match l with Good _ -> true | Bad _ -> false in
      Outcome.check o
        (ok = Some want && id_ok)
        (Printf.sprintf "line %d: %s" i
           (if first.(i) = "" then "no reply" else "unexpected reply " ^ first.(i))))
    lines;
  (* Later sessions must answer byte for byte the same. *)
  List.iteri
    (fun k (replies, _) ->
      if k > 0 then
        Array.iteri
          (fun i s ->
            Outcome.check o (s = first.(i))
              (Printf.sprintf "session %d line %d: reply differs from session 0" k i))
          replies)
    sessions;
  (* Every distinct run request against a one-shot [run_scheme]. *)
  let runs =
    List.sort_uniq compare
      (List.filter_map (function i, Good (r, _) when r.op = "run" -> Some (r, i) | _ -> None) lines
      |> List.map fst)
  in
  let first_line r =
    fst (List.find (function _, Good (r', _) -> r' = r | _ -> false) lines)
  in
  let simulated = ref 0 and model = ref [] in
  List.iter
    (fun r ->
      let i = first_line r in
      let id = Printf.sprintf "line %d (%s)" i r.scheme in
      let prog =
        match r.prog with
        | Builtin b -> Suite.find b
        | Source s -> Result.get_ok (Hextile_frontend.Front.parse_string ~name:"<request>" s)
      in
      let env = [ ("N", r.n); ("T", r.t) ] in
      match
        Experiments.run_scheme ~pool ~analytic:r.analytic ~verify:(not r.analytic)
          (scheme_of r.scheme) prog env dev
      with
      | exception e -> Outcome.fail o (id ^ ": one-shot run raised " ^ Printexc.to_string e)
      | one ->
          let want_hash = Hextile_serve.Engine.grids_hash prog one.Common.grids in
          let want_result = Json.to_string ~minify:true (Experiments.result_json one) in
          let got_hash = member "grids_hash" parsed.(i) in
          let got_result = Option.map (Json.to_string ~minify:true) (member "result" parsed.(i)) in
          Outcome.check o
            (got_hash = Some (Json.Str want_hash) && got_result = Some want_result)
            (id ^ ": reply differs from a one-shot run_scheme");
          simulated := !simulated + one.Common.updates;
          if List.mem r heavy_reqs then model := Common.gstencils_per_s one :: !model)
    runs;
  (* Every distinct run request is simulated once per session (the
     cache starts empty); repeats are hits and simulate nothing. *)
  o.round_updates <- !simulated;
  o.gstencils_geomean <- Stats.geomean !model;
  o.dram_err <-
    Checks.analytic_twin o ~pool ~id:"analytic line twin" Suite.laplacian2d
      (analytic_twin_env ~tiny) dev;
  let s = stats in
  let r h m = Stats.ratio h (h + m) in
  Outcome.count o "serve.cache.entry_hit_ratio" (r s.Cache.entry_hits s.Cache.entry_misses);
  Outcome.count o "serve.cache.run_hit_ratio" (r s.Cache.run_hits s.Cache.run_misses);
  Outcome.count o "serve.cache.tilesize_hit_ratio" (r s.Cache.tilesize_hits s.Cache.tilesize_misses);
  Outcome.count o "serve.cache.compile_hit_ratio" (r s.Cache.compile_hits s.Cache.compile_misses);
  Outcome.count o "serve.cache.collisions" (float_of_int s.Cache.collisions);
  Outcome.count o "serve.error_replies"
    (float_of_int
       (Array.fold_left
          (fun acc p ->
            match member "ok" p with Some (Json.Bool false) -> acc + 1 | _ -> acc)
          0 parsed));
  (* Tile-size and codegen work of the distinct requests, read from the
     replies. *)
  let distinct op =
    List.sort_uniq compare
      (List.filter_map (function i, Good (r, _) when r.op = op -> Some (r, i) | _ -> None) lines
      |> List.map fst)
    |> List.map first_line
  in
  let sum_field op path =
    List.fold_left
      (fun acc i ->
        match List.fold_left (fun j k -> member k j) parsed.(i) path with
        | Some (Json.Int v) -> acc + v
        | _ -> acc)
      0 (distinct op)
  in
  Outcome.count o "tile_size.exact_evals" (float_of_int (sum_field "tilesize" [ "report"; "exact_evals" ]));
  let cands = sum_field "tilesize" [ "report"; "candidates" ] in
  Outcome.count o "tile_size.prune_ratio"
    (Stats.ratio
       (sum_field "tilesize" [ "report"; "pruned_infeasible" ]
       + sum_field "tilesize" [ "report"; "pruned_dominated" ])
       cands);
  Outcome.count o "codegen.bytes" (float_of_int (sum_field "compile" [ "cuda_bytes" ]));
  Outcome.later_setups o ~setup ~teardown:Par.shutdown
