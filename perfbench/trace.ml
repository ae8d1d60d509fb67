(* Benchmark-side spans around the calls into each layer.

   Spans are recorded on the main domain only, by the benchmark itself,
   so their order never depends on pool scheduling. Each span carries
   the [Gc.quick_stat] deltas across its call: quick_stat sums every
   domain's counts, but another domain's minor words are only folded in
   at its next minor collection, so minor words of work that ran on pool
   workers are attributed to the span during which that domain last
   collected. Collection counts are exact (collections are
   stop-the-world across all domains). *)

type kind =
  | Layer  (** time spent in one layer of the program *)
  | Frame  (** benchmark structure (a round, a cell, a session) *)

type span = {
  name : string;
  kind : kind;
  id : string;  (** cell, instance or request identifier *)
  parent : int;  (** index of the enclosing span, -1 at top level *)
  start : float;
  stop : float;
  minor_words : float;
  minor_gcs : int;
  major_gcs : int;
}

let enabled = ref false
let recorded : (int * span) list ref = ref []
let count = ref 0
let stack : int list ref = ref []

let now = Unix.gettimeofday

let reset () =
  recorded := [];
  count := 0;
  stack := []

let with_span ?(kind = Layer) ?(id = "") name f =
  if not !enabled then f ()
  else begin
    let idx = !count in
    incr count;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := idx :: !stack;
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let g1 = Gc.quick_stat () in
      stack := List.tl !stack;
      recorded :=
        ( idx,
          {
            name;
            kind;
            id;
            parent;
            start = t0;
            stop = t1;
            minor_words = g1.minor_words -. g0.minor_words;
            minor_gcs = g1.minor_collections - g0.minor_collections;
            major_gcs = g1.major_collections - g0.major_collections;
          } )
        :: !recorded
    in
    Fun.protect ~finally:finish f
  end

(* Run [f] without recording spans (warm-up work that belongs to no
   layer's measured calls). *)
let untraced f =
  let was = !enabled in
  enabled := false;
  Fun.protect ~finally:(fun () -> enabled := was) f

(* Spans indexed by opening order (the [parent] indices refer to it). *)
let spans () =
  let a = Array.make !count None in
  List.iter (fun (i, s) -> a.(i) <- Some s) !recorded;
  Array.map Option.get a

(* Wall time of one empty span, from a calibration loop: the tracer's
   own cost, charged per recorded span to estimate the overhead of a
   traced run. Leaves the recorder empty. *)
let per_span_cost () =
  let n = 2000 in
  let was = !enabled in
  enabled := true;
  reset ();
  let t0 = now () in
  for _ = 1 to n do
    with_span "calibrate" ignore
  done;
  let c = (now () -. t0) /. float_of_int n in
  enabled := was;
  reset ();
  c

(* Self time of every span: its duration minus its direct children's. *)
let self_times spans =
  let self = Array.map (fun s -> s.stop -. s.start) spans in
  Array.iter
    (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. (s.stop -. s.start))
    spans;
  self

type layer_total = {
  self_s : float;
  minor_words : float;
  major_gcs : int;
  calls : int;
}

(* Per-name totals over every [Layer] span. Layer spans never enclose
   one another, so a layer's self time is also its busy time. *)
let layer_totals spans =
  let self = self_times spans in
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      if s.kind = Layer then begin
        let cur =
          Option.value (Hashtbl.find_opt tbl s.name)
            ~default:{ self_s = 0.0; minor_words = 0.0; major_gcs = 0; calls = 0 }
        in
        Hashtbl.replace tbl s.name
          {
            self_s = cur.self_s +. self.(i);
            minor_words = cur.minor_words +. s.minor_words;
            major_gcs = cur.major_gcs + s.major_gcs;
            calls = cur.calls + 1;
          }
      end)
    spans;
  tbl

(* Wall time not covered by the self time of any layer span. *)
let unattributed ~wall spans =
  let self = self_times spans in
  let attributed = ref 0.0 in
  Array.iteri (fun i s -> if s.kind = Layer then attributed := !attributed +. self.(i)) spans;
  wall -. !attributed

let write_json path ~origin spans =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "[\n";
  Array.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"i\":%d,\"name\":%S,\"kind\":%S,\"id\":%S,\"parent\":%d,\"start_s\":%.6f,\"end_s\":%.6f,\"minor_words\":%.0f,\"minor_gcs\":%d,\"major_gcs\":%d}\n"
        (if i = 0 then "" else ",")
        i s.name
        (match s.kind with Layer -> "layer" | Frame -> "frame")
        s.id s.parent (s.start -. origin) (s.stop -. origin) s.minor_words s.minor_gcs
        s.major_gcs)
    spans;
  output_string oc "]\n"
