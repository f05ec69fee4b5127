(* Both loops are tail calls: constant stack whatever the haystack. *)
let rec matches_at hay i needle k =
  k = String.length needle
  || (hay.[i + k] = needle.[k] && matches_at hay i needle (k + 1))

let rec first_at hay needle i =
  if i + String.length needle > String.length hay then -1
  else if matches_at hay i needle 0 then i
  else first_at hay needle (i + 1)

let find ~needle ~from hay =
  match first_at hay needle from with -1 -> None | i -> Some i

let contains ~needle hay = first_at hay needle 0 >= 0
