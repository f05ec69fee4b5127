module S = Set.Make (Tag)

(* A label wraps its tag set with two lazily filled caches: [id], the
   interned-content id (0 = not yet interned), and [card], the
   cardinality (-1 = not yet computed). Content ids come from a
   monotone counter and are never reused, so two labels sharing an id
   are guaranteed equal — the converse does not hold (a pool flush can
   hand the same content a fresh id), so structural fallbacks remain.

   The set itself stays immutable; the mutable fields are caches of
   functions of the set, so labels are still values. Nothing in the
   repo compares labels with polymorphic equality (the convention is
   [Label.equal] / [Flow.equal_labels] or pattern matching), which is
   what makes the cached-id representation safe. *)
type t = { set : S.t; mutable id : int; mutable card : int }

let wrap set = { set; id = 0; card = -1 }

(* ---- interning pool ---- *)

module Pool = Hashtbl.Make (struct
  type t = S.t

  let equal = S.equal
  let hash s = S.fold (fun tag acc -> (acc * 31) + Tag.id tag) s 17
end)

let pool : t Pool.t = Pool.create 1024
let pool_cap = 8192
let next_id = ref 0
let intern_counters : Memo.counters = { hits = 0; misses = 0; flushes = 0 }

let () =
  Memo.register ~name:"intern" ~counters:intern_counters ~capacity:pool_cap
    ~size:(fun () -> Pool.length pool)
    ~reset:(fun () -> Pool.reset pool)

let intern lbl =
  if lbl.id > 0 then lbl
  else
    match Pool.find_opt pool lbl.set with
    | Some canonical ->
        intern_counters.hits <- intern_counters.hits + 1;
        lbl.id <- canonical.id;
        lbl.card <- canonical.card;
        canonical
    | None ->
        intern_counters.misses <- intern_counters.misses + 1;
        if Pool.length pool >= pool_cap then begin
          Pool.reset pool;
          intern_counters.flushes <- intern_counters.flushes + 1
        end;
        incr next_id;
        lbl.id <- !next_id;
        Pool.add pool lbl.set lbl;
        lbl

let interned_id lbl =
  if lbl.id > 0 then lbl.id
  else begin
    ignore (intern lbl);
    lbl.id
  end

(* ---- constructors / structure ---- *)

let empty = wrap S.empty
let () = ignore (intern empty)
let is_empty l = S.is_empty l.set
let singleton t = wrap (S.singleton t)
let of_list ts = wrap (S.of_list ts)
let to_list l = S.elements l.set
let add t l = wrap (S.add t l.set)
let remove t l = wrap (S.remove t l.set)
let mem t l = S.mem t l.set
let inter a b =
  if a == b || S.is_empty a.set then a
  else if S.is_empty b.set then b
  else wrap (S.inter a.set b.set)
let diff a b = wrap (S.diff a.set b.set)

let equal a b =
  a == b || (a.id > 0 && a.id = b.id) || S.equal a.set b.set

let compare a b =
  if a == b || (a.id > 0 && a.id = b.id) then 0 else S.compare a.set b.set

let cardinal l =
  if l.card >= 0 then l.card
  else begin
    let c = S.cardinal l.set in
    l.card <- c;
    c
  end

let fold f l acc = S.fold f l.set acc
let iter f l = S.iter f l.set
let exists p l = S.exists p l.set
let for_all p l = S.for_all p l.set
let filter p l = wrap (S.filter p l.set)
let choose_opt l = S.choose_opt l.set

(* ---- lattice judgments ---- *)

let subset a b = a == b || S.is_empty a.set || S.subset a.set b.set

let union a b =
  if a == b then a
  else if S.is_empty a.set then b
  else if S.is_empty b.set then a
  else wrap (S.union a.set b.set)

let pp fmt l =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
       Tag.pp)
    (S.elements l.set)

let to_string l = Format.asprintf "%a" pp l
