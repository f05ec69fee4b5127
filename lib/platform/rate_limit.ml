type bucket = {
  mutable tokens : int;
  mutable last_refill : int;
}

type t = {
  capacity : int;
  refill_per_tick : int;
  buckets : (string, bucket) Hashtbl.t;
  mutable swept_size : int;  (** table size after the last sweep *)
}

(* A sweep runs once the table has doubled since the last one, so its
   O(n) cost is amortised over the n insertions that preceded it; the
   floor keeps a nearly empty table from sweeping on every insert. *)
let sweep_floor = 16

let create ?(capacity = 20) ?(refill_per_tick = 1) () =
  { capacity; refill_per_tick; buckets = Hashtbl.create 32; swept_size = 0 }

let refill t bucket ~now =
  if now > bucket.last_refill then begin
    let earned = (now - bucket.last_refill) * t.refill_per_tick in
    bucket.tokens <- min t.capacity (bucket.tokens + earned);
    bucket.last_refill <- now
  end

(* A bucket refilled to capacity behaves exactly like a missing one
   (new buckets start full), so dropping it changes no answer. *)
let sweep t ~now =
  Hashtbl.filter_map_inplace
    (fun _ bucket ->
      refill t bucket ~now;
      if bucket.tokens >= t.capacity then None else Some bucket)
    t.buckets;
  t.swept_size <- Hashtbl.length t.buckets

let bucket_of t ~key ~now =
  match Hashtbl.find_opt t.buckets key with
  | Some bucket -> bucket
  | None ->
      if Hashtbl.length t.buckets >= 2 * max sweep_floor t.swept_size then
        sweep t ~now;
      let bucket = { tokens = t.capacity; last_refill = now } in
      Hashtbl.replace t.buckets key bucket;
      bucket

let allow t ~key ~now =
  let bucket = bucket_of t ~key ~now in
  refill t bucket ~now;
  if bucket.tokens > 0 then begin
    bucket.tokens <- bucket.tokens - 1;
    true
  end
  else false

let remaining t ~key ~now =
  match Hashtbl.find_opt t.buckets key with
  | None -> t.capacity
  | Some bucket ->
      refill t bucket ~now;
      bucket.tokens

let reset t ~key = Hashtbl.remove t.buckets key
