type kind =
  | Secrecy
  | Integrity

type t = {
  id : int;
  kind : kind;
  restricted : bool;
  name : string;
}

(* Process-wide so ids stay unique across every platform in one
   process; only [fresh] and [make] move it, and only upwards. *)
let counter = ref 0

let fresh ?name ?(restricted = false) kind =
  incr counter;
  let id = !counter in
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "tag#%d" id
  in
  { id; kind; restricted; name }

let make ~id ~name ~restricted kind =
  if id > !counter then counter := id;
  { id; kind; restricted; name }

let kind t = t.kind
let restricted t = t.restricted
let name t = t.name
let id t = t.id
let compare a b = Int.compare a.id b.id
let equal a b = a.id = b.id
let hash t = Hashtbl.hash t.id

let pp fmt t =
  let k = match t.kind with Secrecy -> "s" | Integrity -> "i" in
  Format.fprintf fmt "%s:%s#%d" k t.name t.id
