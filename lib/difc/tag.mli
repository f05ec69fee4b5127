(** Opaque information-flow tags.

    A tag is the unit of data classification in W5 (following Flume
    [Krohn et al., SOSP 2007]). Every user secret, every integrity
    domain, is represented by one tag. Labels ({!Label.t}) are sets of
    tags; capabilities ({!Capability.t}) confer the right to add or
    remove a given tag from one's own label.

    A tag is an immutable value that carries its own kind,
    read-protection bit and name; no table stands behind it. Its
    identity is its integer id alone: {!compare}, {!equal} and
    {!hash} read nothing else. *)

type t
(** An opaque tag. Tags are totally ordered and hashable so that they
    can populate efficient sets. *)

(** What lattice a tag participates in. A [Secrecy] tag taints data
    that must not leave the perimeter; an [Integrity] tag vouches for
    data provenance and gates writes. *)
type kind =
  | Secrecy
  | Integrity

val fresh : ?name:string -> ?restricted:bool -> kind -> t
(** [fresh ~name kind] allocates a new, globally unique tag. [name] is
    kept only for diagnostics; two tags with the same name are still
    distinct. Allocation is deterministic within a run (a monotonic
    counter), which keeps simulations reproducible.

    [restricted] (default [false]) marks a secrecy tag as
    {e read-protected} (§3.1 "read protection"): ordinarily any
    process may taint itself with any secrecy tag, but a restricted
    tag can only be absorbed by a process holding its [t+]
    capability — so unauthorized software cannot read the data at
    all, not merely fail to export it. *)

val kind : t -> kind
(** [kind t] returns the lattice the tag belongs to. *)

val restricted : t -> bool
(** Is this a read-protected tag? *)

val name : t -> string
(** [name t] is the diagnostic name given at creation, or a generated
    ["tag#N"] placeholder. *)

val id : t -> int
(** [id t] is the unique integer identity of [t]. Exposed for stable
    serialization. *)

val make : id:int -> name:string -> restricted:bool -> kind -> t
(** [make ~id ~name ~restricted kind] rebuilds a tag from its parts,
    for deserialization: the filesystem image reader ([Fs.restore_into]
    in [lib/os]) is its only caller.
    It raises the id counter to at least [id], so a later {!fresh}
    never hands out [id] again. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit
(** ["s:name#id"] or ["i:name#id"]. The id is process state shared by
    every platform in the process: fit for audit output, not for text
    a client receives. *)
