(* Order statistics for the benchmark's samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks (numpy's default). *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float r in
    let f = r -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (f *. (a.(i + 1) -. a.(i)))

let median xs = percentile xs 50.0

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] gives them
   (the default "exclusive" method), for the spread report. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then
    let v = if n = 1 then a.(0) else nan in
    (v, v)
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

(* The tail is the highest percentile of this ladder with at least ten
   samples beyond it. The ladder is coarse on purpose: a workload's
   sample count moves with its speed, and a coarse ladder keeps the
   reported percentile the same over a wide range of counts. [None]
   below twenty samples. *)
let tail_ladder = [ 99.0; 90.0; 50.0 ]

let tail_percentile n =
  List.find_opt (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0) tail_ladder

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
