(** The covert-channel-safe query engine.

    §3.5 of the paper notes that "the SQL interface to databases can
    leak information implicitly and thus needs to be replaced under
    W5". The leak is through result {e shape}: whether a row appears
    in (or is absent from) a result tells the querier something about
    data it may not be tainted by.

    The replacement rule implemented here: a query taints the caller
    with the join of the labels of {b every row in the collection} —
    the collection's label summary — before any row is served. Absence
    then carries no exploitable signal: by the time the caller learns
    the shape, it is already tainted by everything that could have
    shaped it and cannot export the knowledge. The summary is one pass
    over the collection directory's children
    ({!W5_os.Fs.fold_children}): their secrecy union and integrity
    meet, plus the lookup path's secrecy. Because the taint is settled
    up front and does not depend on which rows are visited, [limit]
    may stop the walk early; every visited row is still read through
    the syscall layer (see DESIGN.md, "Collection label summary").

    {!select_leaky} implements the classic (unsafe) semantics — skip
    rows the caller cannot read — and exists only as the baseline arm
    of experiment E8 and its ablation bench.

    Every visited row also costs CPU quota, so a malicious query
    cannot monopolize the database (§3.5 "resource allocation"): it
    dies by quota instead. *)

open W5_os

type id = string

type predicate
(** A row filter; apply one with {!eval}. *)

val always : predicate
val field_equals : string -> string -> predicate
val field_contains : string -> string -> predicate
(** Substring match on the field's value; absent field never matches. *)

val field_int_at_least : string -> int -> predicate
val has_field : string -> predicate
val ( &&& ) : predicate -> predicate -> predicate
val ( ||| ) : predicate -> predicate -> predicate
val not_ : predicate -> predicate

val custom : (Record.t -> bool) -> predicate

val eval : predicate -> Record.t -> bool

val select :
  ?limit:int -> Kernel.ctx -> collection:string -> where:predicate ->
  ((id * Record.t) list, Os_error.t) result
(** Safe semantics: absorb the collection's label summary, then return
    decoded matches in id order. Rows that fail to decode are skipped.
    A restricted tag anywhere in the collection denies the query
    before any row is read.

    [limit] short-circuits the walk once that many rows match; the
    taint (already settled) is unaffected, so pagination does not cost
    a full read of the collection. *)

val select_leaky :
  Kernel.ctx -> collection:string -> where:predicate ->
  ((id * Record.t) list, Os_error.t) result
(** Unsafe baseline: strict reads, silently skipping rows the caller
    may not see. Result shape leaks. Kept for experiment E8 only. *)

val count :
  Kernel.ctx -> collection:string -> where:predicate ->
  (int, Os_error.t) result
(** [List.length] of {!select}, with the same taint semantics. *)

val fold :
  Kernel.ctx -> collection:string -> init:'a ->
  f:('a -> id -> Record.t -> 'a) -> ('a, Os_error.t) result
(** Safe full-collection fold (taints like {!select}, visits every
    row). *)
