module S = Set.Make (Tag)

type t = S.t

let empty = S.empty
let is_empty = S.is_empty
let singleton = S.singleton
let of_list = S.of_list
let to_list = S.elements
let add = S.add
let remove = S.remove
let mem = S.mem

let inter a b =
  if a == b || S.is_empty a then a
  else if S.is_empty b then b
  else S.inter a b

let diff = S.diff
let equal a b = a == b || S.equal a b
let compare a b = if a == b then 0 else S.compare a b
let cardinal = S.cardinal
let fold = S.fold
let iter = S.iter
let exists = S.exists
let for_all = S.for_all
let filter = S.filter
let choose_opt = S.choose_opt

(* ---- lattice judgments ---- *)

let subset a b = a == b || S.is_empty a || S.subset a b

let union a b =
  if a == b then a
  else if S.is_empty a then b
  else if S.is_empty b then a
  else S.union a b

let pp fmt l =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
       Tag.pp)
    (S.elements l)

let to_string l = Format.asprintf "%a" pp l
