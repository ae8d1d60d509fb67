(* Seeded inputs. The program only ever sees what is generated here:
   stencil sources whose array names come from the seed, and request
   lines. Renaming arrays changes every grid's contents (grids are
   initialised from their array's name) but neither the work nor any
   simulated counter (arrays are placed in declaration order). *)

open Hextile_ir
module Rng = Hextile_check.Rng

let letters = "abcdefghijklmnopqrstuvwxyz"

(* Fresh identifiers "arr" ^ four letters: never a keyword, iterator or
   parameter of the frontend's C subset. *)
let fresh_names rng n =
  let rec go acc =
    if List.length acc = n then List.rev acc
    else
      let s = String.init 4 (fun _ -> letters.[Rng.int rng 26]) in
      let s = "arr" ^ s in
      if List.mem s acc then go acc else go (s :: acc)
  in
  go []

let rename_arrays rng (p : Stencil.t) =
  let olds = List.map (fun (a : Stencil.array_decl) -> a.aname) p.arrays in
  let map = List.combine olds (fresh_names rng (List.length olds)) in
  let acc (a : Stencil.access) = { a with array = List.assoc a.array map } in
  let rec fexpr = function
    | Stencil.Read a -> Stencil.Read (acc a)
    | Stencil.Fconst _ as c -> c
    | Stencil.Bin (o, x, y) -> Stencil.Bin (o, fexpr x, fexpr y)
    | Stencil.Neg x -> Stencil.Neg (fexpr x)
  in
  {
    p with
    arrays =
      List.map (fun (a : Stencil.array_decl) -> { a with aname = List.assoc a.aname map }) p.arrays;
    stmts =
      List.map
        (fun (s : Stencil.stmt) -> { s with write = acc s.write; rhs = fexpr s.rhs })
        p.stmts;
  }

(* Source text of a seeded alpha-renamed copy of a program. *)
let renamed_source rng p = Hextile_check.Pretty.to_source (rename_arrays rng p)

(* Fisher-Yates on a copy. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Index drawn with Zipf-like weights 1/(rank+1) over [n] ranks. *)
let zipf rng n =
  let w = Array.init n (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let x = Rng.float rng total in
  let rec go i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. w.(i) in
      if x < acc then i else go (i + 1) acc
  in
  go 0 0.0
