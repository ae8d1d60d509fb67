(* The layered benchmark: one seeded workload per run.

     main.exe --workload table1-schemes|paper-analytic|serve-mixed
              --seed N --seconds S --trace 0|1 [--size full|tiny]

   Prints a provenance-and-spread JSON line, then as the last line the
   result: {"correct", "attempted", "failed", "metrics"} with the
   end-to-end metrics (--trace 0) or the per-layer metrics taken from
   benchmark-side spans (--trace 1). With --trace 1 the spans are also
   written to perfbench/out/. Exits 1 when a correctness check
   failed. *)

module Oncemap = Hextile_par.Oncemap

let workloads = [ "table1-schemes"; "paper-analytic"; "serve-mixed" ]

(* Reads HEAD from .git directly (no subprocess); [None] outside a git
   checkout. *)
let git_rev () =
  let read f =
    try Some (String.trim (In_channel.with_open_text f In_channel.input_all)) with _ -> None
  in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (".git/" ^ r) with
      | Some rev -> Some rev
      | None ->
          Option.bind (read ".git/packed-refs") (fun txt ->
              List.find_map
                (fun line ->
                  match String.index_opt line ' ' with
                  | Some i when String.sub line (i + 1) (String.length line - i - 1) = r ->
                      Some (String.sub line 0 i)
                  | _ -> None)
                (String.split_on_char '\n' txt)))
  | Some rev when String.length rev = 40 -> Some rev
  | _ -> None

let usage () =
  prerr_endline
    "usage: main.exe --workload (table1-schemes|paper-analytic|serve-mixed) --seed N \
     --seconds S --trace 0|1 [--size full|tiny]";
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool; tiny : bool }

let parse_args () =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest when List.mem w workloads -> go { a with workload = w } rest
    | "--seed" :: s :: rest when int_of_string_opt s <> None ->
        go { a with seed = int_of_string s } rest
    | "--seconds" :: s :: rest when float_of_string_opt s <> None ->
        go { a with seconds = float_of_string s } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | "--size" :: ("full" | "tiny" as s) :: rest -> go { a with tiny = s = "tiny" } rest
    | _ -> usage ()
  in
  let a =
    go
      { workload = ""; seed = 1; seconds = 10.0; trace = false; tiny = false }
      (List.tl (Array.to_list Sys.argv))
  in
  if a.workload = "" then usage () else a

let oncemap_ratio ~before ~after name =
  let find l = List.find_map (fun (n, h, m) -> if n = name then Some (h, m) else None) l in
  match (find before, find after) with
  | Some (h0, m0), Some (h1, m1) -> Stats.ratio (h1 - h0) (h1 - h0 + m1 - m0)
  | _ -> 0.0

(* A JSON number with every digit; non-finite values cannot occur in a
   valid result and are printed as null, which no consumer accepts as a
   measurement. *)
let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let metrics_json l =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit)
         l)
  ^ "}"

let () =
  let a = parse_args () in
  let o = Outcome.create () in
  let cost = if a.trace then Trace.per_span_cost () else 0.0 in
  Trace.enabled := a.trace;
  let before = Oncemap.stats_all () in
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let run =
    match a.workload with
    | "table1-schemes" -> Table1.run
    | "paper-analytic" -> Paper_analytic.run
    | _ -> Serve_mixed.run
  in
  (match run o ~seed:a.seed ~seconds:a.seconds ~tiny:a.tiny with
  | () -> ()
  | exception e ->
      Printf.eprintf "perfbench: %s aborted: %s\n%!" a.workload (Printexc.to_string e);
      exit 1);
  let wall = o.timed_end -. t0 in
  let g1 = Option.get o.gc_end in
  let after = o.oncemap_end in
  let spans = Trace.spans () in
  let correct = o.failed = 0 in
  List.iter (fun m -> Printf.eprintf "perfbench: FAILED %s\n" m) (List.rev o.failures);
  let lat = Outcome.latencies o in
  let round_s = Outcome.robust_round_s o in
  let tail_p, tail_v = Outcome.tail_latency o in
  let metrics =
    if not a.trace then
      [
        ("setup_s", "s", Stats.median o.setup_s);
        ("updates_per_s", "1/s", float_of_int o.round_updates /. round_s);
        ("req_per_s", "1/s", float_of_int o.round_requests /. round_s);
        ("req_p50_ms", "ms", Outcome.typical_latency o);
        ("req_tail_ms", "ms", tail_v);
        ("peak_heap_mb", "MB", o.peak_heap_mb);
        ("model_gstencils_geomean", "GStencils/s", o.gstencils_geomean);
        ("analytic_dram_err", "ratio", o.dram_err);
      ]
    else begin
      let totals = Trace.layer_totals spans in
      let layer name =
        Option.value (Hashtbl.find_opt totals name)
          ~default:{ Trace.self_s = 0.0; minor_words = 0.0; major_gcs = 0; calls = 0 }
      in
      let updates name = Option.value ~default:0 (Hashtbl.find_opt o.layer_updates name) in
      let per_update name v =
        if updates name = 0 then 0.0 else v /. float_of_int (updates name)
      in
      let counted name = Option.value ~default:0.0 (List.assoc_opt name o.layer_counts) in
      let sim s =
        let l = layer ("sim." ^ s) in
        [
          ("sim." ^ s ^ ".busy_s", "s", l.self_s);
          ("sim." ^ s ^ ".ns_per_update", "ns", per_update ("sim." ^ s) (l.self_s *. 1e9));
          ("sim." ^ s ^ ".minor_words_per_update", "words", per_update ("sim." ^ s) l.minor_words);
          ("sim." ^ s ^ ".major_collections", "count", float_of_int l.major_gcs);
        ]
      in
      let verify = layer "verify" and analytic = layer "analytic" in
      List.concat
        [
          [
            ("verify.busy_s", "s", verify.self_s);
            ("verify.ns_per_update", "ns", per_update "verify" (verify.self_s *. 1e9));
            ("verify.minor_words_per_update", "words", per_update "verify" verify.minor_words);
          ];
          List.concat_map sim [ "hybrid"; "ppcg"; "par4all"; "overtile" ];
          [
            ("sim.hybrid.memo_ratio", "ratio", counted "sim.hybrid.memo_ratio");
            ("schemes.tape_cache_hit_ratio", "ratio", oncemap_ratio ~before ~after "schemes.tape");
            ("analytic.busy_s", "s", analytic.self_s);
            ("analytic.derive_s", "s", counted "analytic.derive_s");
            ("analytic.dram_replay_s", "s", counted "analytic.dram_replay_s");
            ("analytic.grid_blits_s", "s", counted "analytic.grid_blits_s");
            ( "analytic.other_s",
              "s",
              if analytic.calls = 0 then 0.0 else analytic.self_s -. counted "analytic.epilogue_s" );
            ("analytic.ns_per_blit_row", "ns", counted "analytic.ns_per_blit_row");
            ("analytic.ns_per_replay_line", "ns", counted "analytic.ns_per_replay_line");
            ("analytic.scaled_ratio", "ratio", counted "analytic.scaled_ratio");
            ("analytic.minor_words", "words", analytic.minor_words);
            ("serve.wave_s", "s", (layer "serve.wave").self_s);
            ("serve.cache.entry_hit_ratio", "ratio", counted "serve.cache.entry_hit_ratio");
            ("serve.cache.run_hit_ratio", "ratio", counted "serve.cache.run_hit_ratio");
            ("serve.cache.tilesize_hit_ratio", "ratio", counted "serve.cache.tilesize_hit_ratio");
            ("serve.cache.compile_hit_ratio", "ratio", counted "serve.cache.compile_hit_ratio");
            ("serve.cache.collisions", "count", counted "serve.cache.collisions");
            ("serve.error_replies", "count", counted "serve.error_replies");
            ("frontend.busy_s", "s", (layer "frontend").self_s);
            ("frontend.calls", "count", float_of_int (layer "frontend").calls);
            ("deps.busy_s", "s", (layer "deps").self_s);
            ("deps.cache_hit_ratio", "ratio", oncemap_ratio ~before ~after "dep.analyze");
            ("poly.fm_cache_hit_ratio", "ratio", oncemap_ratio ~before ~after "poly.fm_projection");
            ("tiling.busy_s", "s", (layer "tiling").self_s);
            ("tile_size.busy_s", "s", (layer "tile_size").self_s);
            ("tile_size.exact_evals", "count", counted "tile_size.exact_evals");
            ("tile_size.prune_ratio", "ratio", counted "tile_size.prune_ratio");
            ("codegen.busy_s", "s", (layer "codegen").self_s);
            ("codegen.bytes", "bytes", counted "codegen.bytes");
            ("unattributed_s", "s", Trace.unattributed ~wall spans);
            ("gc.minor_collections", "count", float_of_int (g1.minor_collections - g0.minor_collections));
            ("gc.major_collections", "count", float_of_int (g1.major_collections - g0.major_collections));
            ("fail_ratio", "ratio", Stats.ratio o.failed (max 1 o.attempted));
            ("trace.overhead_ratio", "ratio", cost *. float_of_int (Array.length spans) /. wall);
          ];
        ]
    end
  in
  if a.trace then begin
    (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf "perfbench/out/trace-%s-seed%d.json" a.workload a.seed in
    Trace.write_json path ~origin:t0 spans;
    Printf.eprintf "perfbench: %d spans written to %s\n" (Array.length spans) path
  end;
  (* Provenance, and the spread of every sampled quantity: set-ups,
     the raw throughput of each round, and the latencies. *)
  let per_round n = List.map (fun t -> float_of_int n /. t) o.round_s in
  let spread l =
    let q1, q3 = Stats.quartiles l in
    Printf.sprintf "{\"n\": %d, \"median\": %s, \"q1\": %s, \"q3\": %s}" (List.length l)
      (num (Stats.median l)) (num q1) (num q3)
  in
  Printf.printf
    "{\"provenance\": {\"workload\": \"%s\", \"seed\": %d, \"seconds\": %s, \"trace\": %b, \
     \"size\": \"%s\", \"git_rev\": %s, \"ocaml_version\": \"%s\", \"cores\": %d, \"jobs\": \
     %d, \"rounds\": %d, \"timed_s\": %s, \"gc_stats_cover\": \"all domains (quick_stat; \
     other domains' minor words up to their last minor collection)\"}, \"spread\": \
     {\"setup_s\": %s, \"updates_per_s\": %s, \"req_per_s\": %s, \"latency_ms\": %s}, \
     \"robust_round_s\": %s, \"tail\": {\"percentile\": %s, \"samples\": %d}}\n"
    a.workload a.seed (num a.seconds) a.trace
    (if a.tiny then "tiny" else "full")
    (match git_rev () with Some r -> "\"" ^ r ^ "\"" | None -> "null")
    Sys.ocaml_version
    (Domain.recommended_domain_count ())
    Outcome.jobs (List.length o.round_s) (num o.timed_s) (spread o.setup_s)
    (spread (per_round o.round_updates)) (spread (per_round o.round_requests)) (spread lat)
    (num round_s) (match tail_p with Some p -> num p | None -> "null")
    (List.length lat);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    correct (max 1 o.attempted) o.failed (metrics_json metrics);
  if not correct then exit 1
