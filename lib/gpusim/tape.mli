(** Flat register-machine tapes and the fused run plans that evaluate
    them.

    A tape is one statement's right-hand side flattened into an array of
    register-to-register instructions, in the closure interpreter's
    post-order walk ([Schemes.Common.compile_tape] builds it via
    {!make}). Tapes are only a compile form: {!plan} peephole-compiles a
    tape into fused superinstructions (left-assoc sum windows,
    constant-factor multiplies, [a - k*b], [k1*a + k2*b]), and
    {!exec_plan}, the only evaluator, runs a whole row of lanes through
    them. It reads sources directly from the grids, keeps single-use
    intermediates out of scratch, and writes the result straight to the
    output grid.

    Plans are bit-exact: each superinstruction performs exactly the
    float operations of the instruction subsequence it replaces, on the
    same operands in the same per-lane order (fusion removes memory
    materializations, never arithmetic), so every lane gets the IEEE
    double a scalar walk of the tape computes. *)

type instr =
  | Const of { dst : int; v : float }
  | Neg of { dst : int; a : int }
  | Add of { dst : int; a : int; b : int }
  | Sub of { dst : int; a : int; b : int }
  | Mul of { dst : int; a : int; b : int }
  | Div of { dst : int; a : int; b : int }

type t = private {
  nsrcs : int;  (** registers [0..nsrcs-1] are load destinations *)
  nregs : int;
  result : int;  (** register holding the statement value *)
  instrs : instr array;
}

val make : nsrcs:int -> nregs:int -> result:int -> instrs:instr array -> t
(** Validates that every register index is in [0, nregs), so plans run
    without per-access bounds checks. *)

val length : t -> int
(** Instruction count (for the [sim.tape_instrs] counter). *)

type plan

val plan : t -> plan

val plan_scratch_words : plan -> int
(** Scratch floats {!exec_plan} needs: materialized registers × the
    256-lane strip. *)

val exec_plan :
  plan ->
  float array ->
  datas:float array array ->
  bases:int array ->
  dx:int ->
  n:int ->
  out:float array ->
  out_base:int ->
  unit
(** [exec_plan p scratch ~datas ~bases ~dx ~n ~out ~out_base] evaluates
    [n] consecutive lanes (any [n >= 0]): lane [j] reads source [s] at
    [datas.(s).(bases.(s) + dx + j)] and stores the result to
    [out.(out_base + j)]. [scratch] holds at least {!plan_scratch_words}
    floats and is not shared with a concurrent call. Lanes run in
    strips of 256, so callers pass whole rows. The output may alias a
    source only at the same lane: a read of another lane's output cell
    could see either value. Row endpoints of every source the plan reads
    and of the output are bounds-checked once up front; the fused loops
    then run unchecked. Allocates nothing. *)
