(** The labeled filesystem — mechanism only.

    Every file and directory carries a {!W5_difc.Flow.labels} pair.
    This module implements the tree and path handling; all policy
    (flow checks against an acting process) lives in {!Syscall}, so
    there is exactly one place where security decisions are made.

    Paths are absolute, ["/"]-separated strings; ["/"] is the root
    directory. *)

open W5_difc

type t

type node_kind =
  | Regular
  | Directory

type stat = {
  kind : node_kind;
  labels : Flow.labels;
  size : int;          (** bytes for files, entry count for dirs *)
  version : int;       (** bumped on every write / entry change *)
}
(** A directory's [version] is bumped when an entry is added, removed
    or renamed, and also when an immediate child file's contents or
    labels change — so it covers the whole set of direct children. *)

val create : ?root_labels:Flow.labels -> unit -> t

val mkdir : t -> string -> labels:Flow.labels -> (unit, Os_error.t) result
val create_file :
  t -> string -> labels:Flow.labels -> data:string -> (unit, Os_error.t) result

val read : t -> string -> (string * Flow.labels, Os_error.t) result
val write : t -> string -> data:string -> (unit, Os_error.t) result
val append : t -> string -> data:string -> (unit, Os_error.t) result
val unlink : t -> string -> (unit, Os_error.t) result
(** Removes a file or an *empty* directory. *)

val rename : t -> src:string -> dst:string -> (unit, Os_error.t) result
(** Move a file or directory (with its subtree). [dst] must not exist;
    moving a directory into its own subtree is rejected. *)

val readdir : t -> string -> (string list * Flow.labels, Os_error.t) result
(** Entry names (sorted) plus the directory's labels. *)

val fold_children :
  t -> string -> init:'a -> f:('a -> Flow.labels -> 'a) ->
  ('a, Os_error.t) result
(** Fold [f] over the labels of every immediate child of a directory
    — files and sub-directories alike — in unspecified order, without
    resolving each child's path. Mechanism only, like the rest of this
    module: the caller owns what the labels may be used for. *)

val stat : t -> string -> (stat, Os_error.t) result
val set_labels : t -> string -> labels:Flow.labels -> (unit, Os_error.t) result
val exists : t -> string -> bool

val parent_labels : t -> string -> (Flow.labels, Os_error.t) result
(** Labels of the directory containing the path's last component. *)

val path_taint : t -> string -> (Flow.labels, Os_error.t) result
(** Join of the labels of every ancestor directory traversed to reach
    the path (excluding the node itself): the information revealed by
    a successful lookup. *)

val total_files : t -> int

val generation : t -> int
(** Bumped whenever the namespace changes out from under version
    counters (today: a successful {!restore_into}). A cache keyed on
    [(generation, dir version)] stays sound across restores. Nothing
    keys on the pair today; it is the stamp planned for incremental
    federation sync, which would re-stat a directory's children only
    when the pair has moved since the last round (ROADMAP.md). *)

val snapshot : t -> string
(** Serialize the whole tree — data, labels (by tag identity) and
    versions — into a deterministic text image. Together with
    {!restore_into} this is the provider's durability story: the
    simulated disk can be checkpointed and reloaded across a kernel
    restart within the same provider process (tag identities are
    provider state and persist with it; see DESIGN.md §2). *)

val restore_into : t -> string -> (unit, Os_error.t) result
(** Replace [t]'s contents with a {!snapshot} image. Labels referring
    to tags unknown to this provider are an error, not a silent drop —
    losing a label would declassify. *)

val dirname : string -> string
val basename : string -> string
val join_path : string -> string -> string
