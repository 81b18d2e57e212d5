(* Operations on affine index expressions.

   Indices are kept in a normal form: terms sorted by ascending depth,
   one term per depth, zero coefficients dropped.  All transformations
   that change loop structure (tiling, interchange, fusion shifts) are
   expressed as depth remappings over these terms, so [normalize] runs
   for every index a move rewrites.  It stable-sorts the terms by depth
   and sums adjacent equal depths: no hash table per call. *)

open Types

let normalize (terms : (int * int) list) offset : index =
  let rec merge = function
    | (c1, d1) :: (c2, d2) :: rest when d1 = d2 ->
        merge ((c1 + c2, d1) :: rest)
    | (0, _) :: rest -> merge rest
    | t :: rest -> t :: merge rest
    | [] -> []
  in
  let by_depth (_, d1) (_, d2) = Int.compare d1 d2 in
  { terms = merge (List.stable_sort by_depth terms); offset }

let const n : index = { terms = []; offset = n }
let iter ?(coeff = 1) depth : index = normalize [ (coeff, depth) ] 0
let zero : index = const 0

let add a b = normalize (a.terms @ b.terms) (a.offset + b.offset)

let scale k a =
  normalize (List.map (fun (c, d) -> (c * k, d)) a.terms) (k * a.offset)

let equal (a : index) (b : index) = a.terms = b.terms && a.offset = b.offset

(* Coefficient of the iterator at [depth] (0 when absent). *)
let coeff_of depth (a : index) =
  try fst (List.find (fun (_, d) -> d = depth) a.terms) with Not_found -> 0

let depends_on depth a = coeff_of depth a <> 0
let depths a = List.map snd a.terms
let is_const a = a.terms = []

(* Apply a depth substitution: each term [c * {d}] becomes [c * f d] where
   [f d] is itself an index.  Used by tiling ({d} -> k*{d} + {d+1}),
   interchange (swap two depths) and fusion (shift depths). *)
let subst (f : int -> index) (a : index) : index =
  List.fold_left
    (fun acc (c, d) -> add acc (scale c (f d)))
    (const a.offset) a.terms

(* Shift all iterator depths >= [from] by [delta]. *)
let shift_depths ~from ~delta a =
  subst (fun d -> if d >= from then iter (d + delta) else iter d) a

(* Evaluate the index under an environment giving each depth's current
   iteration value. *)
let eval (env : int array) (a : index) : int =
  List.fold_left (fun acc (c, d) -> acc + (c * env.(d))) a.offset a.terms

(* Range [lo, hi] of values the index can take when iterator [d] ranges
   over [0, sizes d - 1]. Used by bounds validation. *)
let value_range (sizes : int -> int) (a : index) : int * int =
  List.fold_left
    (fun (lo, hi) (c, d) ->
      let extent = sizes d - 1 in
      if c >= 0 then (lo, hi + (c * extent)) else (lo + (c * extent), hi))
    (a.offset, a.offset) a.terms

let to_string (a : index) =
  match (a.terms, a.offset) with
  | [], n -> string_of_int n
  | terms, off ->
      let term_str (c, d) =
        if c = 1 then Printf.sprintf "{%d}" d
        else Printf.sprintf "%d*{%d}" c d
      in
      let body = String.concat "+" (List.map term_str terms) in
      if off = 0 then body
      else if off > 0 then Printf.sprintf "%s+%d" body off
      else Printf.sprintf "%s-%d" body (-off)
