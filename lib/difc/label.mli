(** Labels: finite sets of {!Tag.t} forming the DIFC lattice.

    A process or object carries two labels, a secrecy label [S] and an
    integrity label [I]. The partial order is set inclusion; join is
    union and meet is intersection. All operations are purely
    functional.

    Labels are hash-consed on demand: {!intern} maps a label to a
    canonical representative with a process-unique content id, which
    {!equal} and {!compare} use as a shortcut. {!subset} and {!union}
    are the plain set operations. Compare labels only with {!equal} /
    {!compare} — the cached id makes polymorphic structural equality
    unreliable. *)

type t

val empty : t
val is_empty : t -> bool
val singleton : Tag.t -> t
val of_list : Tag.t list -> t
val to_list : t -> Tag.t list

val add : Tag.t -> t -> t
val remove : Tag.t -> t -> t
val mem : Tag.t -> t -> bool

val intern : t -> t
(** The canonical representative for this tag-set content. Interned
    equality is physical equality (until a pool flush re-canonicalizes
    the content under a fresh id — never observable except as a cache
    miss). Also caches the content id on the argument itself. *)

val interned_id : t -> int
(** The content id (> 0), interning first if needed. Equal ids imply
    equal labels; distinct ids imply nothing. *)

val union : t -> t -> t
(** Lattice join: the label of data derived from two sources. *)

val inter : t -> t -> t
(** Lattice meet. *)

val diff : t -> t -> t
(** [diff a b] is the set of tags in [a] but not [b] — the tags that
    make a flow from [a] to [b] unsafe. *)

val subset : t -> t -> bool
(** [subset a b] is the lattice order: data labeled [a] may flow where
    [b] is required. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val cardinal : t -> int
val fold : (Tag.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Tag.t -> unit) -> t -> unit
val exists : (Tag.t -> bool) -> t -> bool
val for_all : (Tag.t -> bool) -> t -> bool
val filter : (Tag.t -> bool) -> t -> t
val choose_opt : t -> Tag.t option
val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** Render as ["{a, b, c}"] using tag names, for audit records. *)
