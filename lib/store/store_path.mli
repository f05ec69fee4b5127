(** Path conventions for the object store, shared by {!Obj_store}
    and {!Query} (which reads the collection directory's children for
    its label summary). *)

val root : string
(** The store's root directory, ["/store"]. *)

val sanitize : string -> string
(** Escape an application-chosen name into a filesystem-safe one.
    Injective: ['_'] becomes ["__"] and ['/'] becomes ["_s"], so
    distinct logical names never alias the same on-disk file. *)

val unsanitize : string -> string
(** Inverse of {!sanitize} on its image; lenient elsewhere (a stray
    unescaped ['_'] passes through) so directory listings never
    fail. *)

val collection_path : string -> string
(** [collection_path c] is the directory holding collection [c]. *)

val object_path : string -> string -> string
(** [object_path c id] is the file holding object [id] of collection
    [c]. *)
