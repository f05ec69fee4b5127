(* A global stats registry for the label algebra's bounded caches (today
   only the Label.intern pool), so the kernel can republish hit/miss
   counters as w5_label_cache_* metrics without lib/difc depending on
   lib/obs. *)

type counters = {
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
}

type snapshot = {
  name : string;
  hits : int;
  misses : int;
  flushes : int;
  size : int;
  capacity : int;
}

type entry = {
  e_name : string;
  e_counters : counters;
  e_capacity : int;
  e_size : unit -> int;
  e_reset : unit -> unit;
}

let registry : entry list ref = ref []

let register ~name ~counters ~capacity ~size ~reset =
  registry :=
    {
      e_name = name;
      e_counters = counters;
      e_capacity = capacity;
      e_size = size;
      e_reset = reset;
    }
    :: !registry

let snapshots () =
  List.rev_map
    (fun e ->
      {
        name = e.e_name;
        hits = e.e_counters.hits;
        misses = e.e_counters.misses;
        flushes = e.e_counters.flushes;
        size = e.e_size ();
        capacity = e.e_capacity;
      })
    !registry

let reset_all () =
  List.iter
    (fun e ->
      e.e_reset ();
      e.e_counters.hits <- 0;
      e.e_counters.misses <- 0;
      e.e_counters.flushes <- 0)
    !registry
