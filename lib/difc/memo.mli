(** Hit/miss/flush counters for the label algebra's bounded caches.

    The only registered cache is the label intern pool
    ({!Label.intern}), named ["intern"]. The lattice judgments
    ({!Label.subset}, {!Label.union}, {!Flow.join}, {!Flow.can_flow})
    are plain set operations and keep no cache: real labels carry one
    to three tags, where a probe costs more than the operation
    (DESIGN §14).

    Counters live in a process-global registry that {!snapshots}
    exposes; the kernel republishes them as [w5_label_cache_*]
    metrics. They carry only cache names and counts — never tag names
    or user bytes. *)

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

val snapshots : unit -> snapshot list
(** One snapshot per registered cache, in registration order. *)

val reset_all : unit -> unit
(** Flush every registered cache and zero its counters. Test hook;
    also safe anytime (a flushed pool only re-interns on demand). *)

val register :
  name:string ->
  counters:counters ->
  capacity:int ->
  size:(unit -> int) ->
  reset:(unit -> unit) ->
  unit
(** Expose a cache (the label intern pool) through the registry. *)
