(* What one workload run measured and checked. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** newest first *)
  mutable setup_s : float list;  (** one per set-up *)
  op_s : (string, float list) Hashtbl.t;
      (** host time of each operation of a round, one sample per round *)
  latency_ms : (string, float list) Hashtbl.t;  (** per request, one sample per round *)
  mutable round_updates : int;  (** statement instances simulated per round *)
  mutable round_requests : int;  (** requests completed per round *)
  mutable round_s : float list;  (** wall time of each round *)
  mutable timed_end : float;  (** when the timed region ended *)
  mutable gc_end : Gc.stat option;  (** GC counters at that moment *)
  mutable oncemap_end : (string * int * int) list;  (** cache stats at that moment *)
  mutable peak_heap_mb : float;
  mutable gstencils_geomean : float;
  mutable dram_err : float;
  mutable timed_s : float;  (** wall time of the timed region *)
  mutable layer_counts : (string * float) list;
      (** per-layer values read from the program's own reports *)
  layer_updates : (string, int) Hashtbl.t;
      (** statement instances handled per layer, for per-update costs *)
}

let create () =
  {
    attempted = 0;
    failed = 0;
    failures = [];
    setup_s = [];
    op_s = Hashtbl.create 64;
    latency_ms = Hashtbl.create 64;
    round_updates = 0;
    round_requests = 0;
    round_s = [];
    timed_end = nan;
    gc_end = None;
    oncemap_end = [];
    peak_heap_mb = nan;
    gstencils_geomean = nan;
    dram_err = nan;
    timed_s = 0.0;
    layer_counts = [];
    layer_updates = Hashtbl.create 8;
  }

let attempt o = o.attempted <- o.attempted + 1

let fail o msg =
  o.failed <- o.failed + 1;
  o.failures <- msg :: o.failures

(* [attempt] then [fail] unless [ok]. *)
let check o ok msg =
  attempt o;
  if not ok then fail o msg

let count o name v = o.layer_counts <- (name, v) :: o.layer_counts

let add_updates o layer n =
  Hashtbl.replace o.layer_updates layer
    (n + Option.value ~default:0 (Hashtbl.find_opt o.layer_updates layer))

let add tbl key v = Hashtbl.replace tbl key (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
let op o key seconds = add o.op_s key seconds
let latency o key ms = add o.latency_ms key ms

(* The host time of one round with interference filtered out: the sum
   over its operations of each one's median over the rounds. The host
   shares its cores, and bursts that slow it down for a fraction of a
   second at a time would otherwise land in every round's total. *)
let robust_round_s o = Hashtbl.fold (fun _ l acc -> acc +. Stats.median l) o.op_s 0.0

let latencies o = Hashtbl.fold (fun _ l acc -> List.rev_append l acc) o.latency_ms []

let request_medians o = Hashtbl.fold (fun _ l acc -> Stats.median l :: acc) o.latency_ms []

(* Median over requests of each request's median latency. *)
let typical_latency o = Stats.median (request_medians o)

(* The tail (see [Stats.tail_percentile]) over every latency sample;
   with too few samples for any percentile, the slowest request's
   median latency. *)
let tail_latency o =
  let all = latencies o in
  match Stats.tail_percentile (List.length all) with
  | Some p -> (Some p, Stats.percentile all p)
  | None -> (None, List.fold_left Float.max neg_infinity (request_medians o))

let now = Unix.gettimeofday

(* Domains of the pool every workload runs on: the core count of the
   two-core hosts the benchmark was built for. *)
let jobs = 2

(* Set-ups per run, taken apart in time so that one slow spell of the
   shared host cannot set the figure: [setups_before] before the timed
   region (the last one's context is the one measured) and
   [setups_after] once the run's checks are done. [setup_s] is their
   median. The first one also fills the process-wide caches, so the
   median is a warm set-up. *)
let setups_before = 5
let setups_after = 4

let timed_setup o ~setup ~first =
  let t0 = now () in
  let ctx = setup ~first in
  o.setup_s <- (now () -. t0) :: o.setup_s;
  ctx

(* The set-ups before the timed region; keeps the last context and
   [teardown]s the others. *)
let repeat_setup o ~setup ~teardown =
  let rec go i prev =
    Option.iter teardown prev;
    let ctx = timed_setup o ~setup ~first:(i = 0) in
    if i + 1 < setups_before then go (i + 1) (Some ctx) else ctx
  in
  go 0 None

(* The set-ups after the run, each torn down at once. *)
let later_setups o ~setup ~teardown =
  for _ = 1 to setups_after do
    teardown (timed_setup o ~setup ~first:false)
  done

(* Whole rounds until the next one would end past [seconds] (judged by
   the median round so far), never fewer than [min_rounds]. *)
let timed_rounds o ~seconds ~min_rounds round =
  let t0 = now () in
  let times = ref [] in
  let rec go k =
    let elapsed = now () -. t0 in
    let next = match !times with [] -> 0.0 | l -> Stats.median l in
    if k < min_rounds || elapsed +. next <= seconds then begin
      let r0 = now () in
      round k;
      times := (now () -. r0) :: !times;
      go (k + 1)
    end
  in
  go 0;
  (* The per-layer accounting covers set-up and the timed region; the
     checks that follow are neither traced nor counted. *)
  Trace.enabled := false;
  o.timed_end <- now ();
  o.gc_end <- Some (Gc.quick_stat ());
  o.oncemap_end <- Hextile_par.Oncemap.stats_all ();
  o.timed_s <- o.timed_end -. t0;
  o.round_s <- !times;
  o.peak_heap_mb <-
    float_of_int (Gc.quick_stat ()).top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6
