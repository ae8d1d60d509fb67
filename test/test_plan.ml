(* Fused tape plans ([Tape.plan] / [Tape.exec_plan]) are the simulator's
   only statement evaluator. On random well-formed tape programs a plan
   must be bit-equal to a scalar per-lane walk of the tape's
   instructions, over rows of 0-600 lanes (crossing the 256-lane strip)
   at random offsets, and a call must not allocate. *)

open Hextile_gpusim

(* Reference: each lane walks the instructions in order over its own
   scalar register file. *)
let interp (t : Tape.t) ~datas ~bases ~dx ~n ~out ~out_base =
  let regs = Array.make t.nregs 0.0 in
  for j = 0 to n - 1 do
    for s = 0 to t.nsrcs - 1 do
      regs.(s) <- datas.(s).(bases.(s) + dx + j)
    done;
    Array.iter
      (function
        | Tape.Const { dst; v } -> regs.(dst) <- v
        | Neg { dst; a } -> regs.(dst) <- -.regs.(a)
        | Add { dst; a; b } -> regs.(dst) <- regs.(a) +. regs.(b)
        | Sub { dst; a; b } -> regs.(dst) <- regs.(a) -. regs.(b)
        | Mul { dst; a; b } -> regs.(dst) <- regs.(a) *. regs.(b)
        | Div { dst; a; b } -> regs.(dst) <- regs.(a) /. regs.(b))
      t.instrs;
    out.(out_base + j) <- regs.(t.result)
  done

(* Mixed magnitudes make float addition visibly non-associative, so a
   reordered sum shows up as a bit difference. *)
let gen_float rand =
  let m = Random.State.float rand 2.0 -. 1.0 in
  m *. (10.0 ** float_of_int (Random.State.int rand 25 - 12))

(* SSA programs over [nsrcs] sources, biased toward the shapes the plan
   fuses: left-assoc add chains, constant multiplies, [a - k*b] and
   [k1*a + k2*b]. Operands are any defined register, so values are
   often used more than once and must be materialized. *)
let gen_tape rand =
  let int n = Random.State.int rand n in
  let nsrcs = 1 + int 6 in
  let next = ref nsrcs and instrs = ref [] in
  let emit f =
    let dst = !next in
    incr next;
    instrs := f dst :: !instrs;
    dst
  in
  let pick () = int !next in
  let const () = emit (fun dst -> Tape.Const { dst; v = gen_float rand }) in
  let mulc x =
    let k = const () in
    if Random.State.bool rand then emit (fun dst -> Tape.Mul { dst; a = k; b = x })
    else emit (fun dst -> Tape.Mul { dst; a = x; b = k })
  in
  let last = ref (pick ()) in
  for _ = 0 to int 14 do
    let r =
      match int 10 with
      | 0 | 1 | 2 | 3 ->
          let b = pick () in
          let a = !last in
          emit (fun dst -> Tape.Add { dst; a; b })
      | 4 -> mulc (pick ())
      | 5 ->
          let a = pick () in
          let k = const () in
          let b = pick () in
          let kb = emit (fun dst -> Tape.Mul { dst; a = k; b }) in
          emit (fun dst -> Tape.Sub { dst; a; b = kb })
      | 6 ->
          let k1 = const () in
          let a = pick () in
          let ka = emit (fun dst -> Tape.Mul { dst; a = k1; b = a }) in
          let k2 = const () in
          let b = pick () in
          let kb = emit (fun dst -> Tape.Mul { dst; a = k2; b }) in
          emit (fun dst -> Tape.Add { dst; a = ka; b = kb })
      | 7 -> const ()
      | _ -> (
          let a = pick () and b = pick () in
          match int 4 with
          | 0 -> emit (fun dst -> Tape.Neg { dst; a })
          | 1 -> emit (fun dst -> Tape.Sub { dst; a; b })
          | 2 -> emit (fun dst -> Tape.Mul { dst; a; b })
          | _ -> emit (fun dst -> Tape.Div { dst; a; b }))
    in
    last := r
  done;
  let result = if int 8 = 0 then pick () else !last in
  Tape.make ~nsrcs ~nregs:(!next + int 2) ~result
    ~instrs:(Array.of_list (List.rev !instrs))

let len = 1100

type case = {
  tape : Tape.t;
  datas : float array array;
  bases : int array;
  dx : int;
  n : int;
  out_base : int;
}

(* A row of 0-600 lanes: a random [dx], per-source bases (possibly
   negative, with [bases.(s) + dx >= 0]) and output base, all in bounds. *)
let gen_case rand =
  let tape = gen_tape rand in
  let n = Random.State.int rand 601 in
  let dx = Random.State.int rand 100 in
  let base () = Random.State.int rand (len - n + 1) in
  {
    tape;
    datas = Array.init tape.nsrcs (fun _ -> Array.init len (fun _ -> gen_float rand));
    bases = Array.init tape.nsrcs (fun _ -> base () - dx);
    dx;
    n;
    out_base = base ();
  }

let pp_instr ppf = function
  | Tape.Const { dst; v } -> Fmt.pf ppf "r%d = %h" dst v
  | Neg { dst; a } -> Fmt.pf ppf "r%d = -r%d" dst a
  | Add { dst; a; b } -> Fmt.pf ppf "r%d = r%d + r%d" dst a b
  | Sub { dst; a; b } -> Fmt.pf ppf "r%d = r%d - r%d" dst a b
  | Mul { dst; a; b } -> Fmt.pf ppf "r%d = r%d * r%d" dst a b
  | Div { dst; a; b } -> Fmt.pf ppf "r%d = r%d / r%d" dst a b

let print_case c =
  Fmt.str "nsrcs=%d result=r%d n=%d dx=%d out_base=%d@.%a" c.tape.nsrcs
    c.tape.result c.n c.dx c.out_base
    Fmt.(array ~sep:(any "@.") pp_instr)
    c.tape.instrs

let arb_case = QCheck.make ~print:print_case gen_case

let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_plan_equals_interp =
  QCheck.Test.make ~name:"exec_plan = scalar tape interpreter" ~count:400 arb_case
    (fun { tape; datas; bases; dx; n; out_base } ->
      let want = Array.make len 7.0 and got = Array.make len 7.0 in
      interp tape ~datas ~bases ~dx ~n ~out:want ~out_base;
      let p = Tape.plan tape in
      (* stale scratch contents must not leak into any lane *)
      let scratch = Array.make (Tape.plan_scratch_words p) Float.nan in
      Tape.exec_plan p scratch ~datas ~bases ~dx ~n ~out:got ~out_base;
      Array.iteri
        (fun i w ->
          if not (same w got.(i)) then
            QCheck.Test.fail_reportf "out.(%d): plan %h, interpreter %h" i got.(i) w)
        want;
      true)

(* Steady state allocates nothing: 100 full-width calls on each of 40
   generated programs, after one warm-up call each. *)
let test_exec_plan_allocation_free () =
  let rand = Random.State.make [| 2024 |] in
  let words = ref 0.0 in
  for _ = 1 to 40 do
    let c = gen_case rand in
    let p = Tape.plan c.tape in
    let scratch = Array.make (Tape.plan_scratch_words p) 0.0 in
    let out = Array.make len 0.0 in
    let n = len - 100 - 1 in
    let bases = Array.make c.tape.nsrcs 0 in
    let run () =
      Tape.exec_plan p scratch ~datas:c.datas ~bases ~dx:100 ~n ~out ~out_base:1
    in
    run ();
    let before = Gc.minor_words () in
    for _ = 1 to 100 do
      run ()
    done;
    words := !words +. (Gc.minor_words () -. before)
  done;
  if !words > 0.0 then
    Alcotest.failf "exec_plan allocated %.0f minor words over 4000 calls" !words

let suite =
  [
    QCheck_alcotest.to_alcotest prop_plan_equals_interp;
    Alcotest.test_case "exec_plan allocates nothing" `Quick
      test_exec_plan_allocation_free;
  ]
