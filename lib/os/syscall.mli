(** The syscall API — everything application code may do.

    This is the single choke point where policy meets mechanism: every
    function charges the caller's resource quota, performs the
    relevant information-flow check, writes an audit record for
    security decisions, and only then touches the filesystem, the
    process table or a mailbox.

    Label-change conventions (the Flume defaults for a data-sharing
    platform):
    - {b raising secrecy} (adding a secrecy tag to one's own label) is
      always allowed — anyone may taint themselves;
    - {b dropping secrecy} requires the [t-] capability
      (declassification privilege);
    - {b raising integrity} (claiming a vouching) requires [t+]
      (endorsement privilege);
    - {b dropping integrity} is always allowed.

    All functions return [result]; quota exhaustion does not return —
    it raises {!Kernel.Quota_kill}, which the kernel turns into a
    process kill, so malicious code cannot catch its way around
    limits. *)

open W5_difc

type 'a r = ('a, Os_error.t) result

(** {1 Syscall footprints}

    One declarative record per operation, naming which label-state
    cells the op reads, writes (and how the write combines), which
    cells its action safety depends on, which of those it revalidates
    inside the same atomic dispatch, and whether it crosses the
    scheduler's entry preemption point. The static interference
    analysis (lib/analysis) consumes this table; it cannot drift from
    the implementation because the dispatcher itself is driven by the
    same records (op naming and preemption placement), and a test
    drives every op under a counting preempt hook to compare observed
    crossings against [entry_preempt]. *)
module Spec : sig
  (** One addressable piece of label state. [Subject_*] cells belong
      to the calling process, [Object_labels]/[Dir_summary] to
      filesystem nodes, [Peer_*] to another process touched through
      IPC, grants, or spawning. *)
  type cell =
    | Subject_secrecy
    | Subject_integrity
    | Subject_caps
    | Object_labels
    | Dir_summary
    | Peer_labels
    | Peer_caps

  (** How a write combines with the current cell value: [Merge] joins
      into it, [Retract] removes from it (the two semilattice
      directions — these commute with themselves), [Assign] replaces
      wholesale (commutes with nothing). *)
  type write_kind = Merge | Assign | Retract

  type t = {
    op : string;
    reads : cell list;
    writes : (cell * write_kind) list;
    depends : cell list;
        (** cells whose value the op's action safety rests on *)
    revalidates : cell list;
        (** the subset of [depends] re-checked inside the same atomic
            dispatch; a dependency not revalidated is TOCTOU bait *)
    entry_preempt : bool;
  }

  val cell_name : cell -> string
  val write_kind_name : write_kind -> string

  val all : t list
  (** Every operation the syscall layer dispatches, exactly once. *)

  val find : string -> t option
  (** Look up a spec by its [op] name. *)

  val label_absorb : t
  val tag_create : t
  val label_set : t
  val label_taint : t
  val label_declassify : t
  val label_endorse : t
  val label_drop_integrity : t
  val cap_grant : t
  val cap_drop : t
  val fs_mkdir : t
  val fs_create : t
  val fs_read : t
  val fs_read_taint : t
  val fs_write : t
  val fs_append : t
  val fs_unlink : t
  val fs_rename : t
  val fs_relabel : t
  val fs_readdir : t
  val fs_stat : t
  val fs_exists : t
  val ipc_send : t
  val ipc_recv : t
  val proc_spawn : t
  val gate_invoke : t
  val proc_respond : t
  val proc_consume : t
  val debug_note : t
end

(** {1 Introspection} *)

val pid : Kernel.ctx -> int
val my_labels : Kernel.ctx -> Flow.labels
val my_caps : Kernel.ctx -> Capability.Set.t
val my_owner : Kernel.ctx -> Principal.t
val usage : Kernel.ctx -> Resource.kind -> int

(** {1 Tags and labels} *)

val create_tag :
  Kernel.ctx -> ?name:string -> ?restricted:bool -> Tag.kind -> Tag.t r
(** Allocates a tag and grants the calling process dual privilege
    over it. *)

val set_labels : Kernel.ctx -> Flow.labels -> unit r
(** Replace the caller's labels, subject to the conventions above. *)

val add_taint : Kernel.ctx -> Label.t -> unit r
(** Join tags into the caller's secrecy label (always allowed). *)

val absorb_labels : Kernel.ctx -> Flow.labels -> unit r
(** Join a full label pair into the caller's (secrecy union, integrity
    meet) — the same absorption a tainting read performs, without the
    read. {e Restricted} secrecy tags still require [t+]; the store's
    query layer uses this to pre-absorb a collection's label summary,
    so the taint does not depend on how many rows a query visits. *)

val declassify_self : Kernel.ctx -> ?context:string -> Tag.t -> unit r
(** Drop one secrecy tag from the caller's label; requires [t-].
    [context] (default ["self"]) names the authority in the audit
    record — declassifier gates and the federation layer pass their
    own names so audit reports can attribute every drop. *)

val endorse_self : Kernel.ctx -> Tag.t -> unit r
(** Add one integrity tag to the caller's label; requires [t+]. *)

val drop_integrity : Kernel.ctx -> Tag.t -> unit r

val grant_cap : Kernel.ctx -> to_:int -> Capability.t -> unit r
(** Give a capability you own to another live process. The grant is a
    communication, so the ordinary flow check applies. *)

val drop_cap : Kernel.ctx -> Capability.t -> unit r

(** {1 Filesystem} *)

val mkdir : Kernel.ctx -> string -> labels:Flow.labels -> unit r
val create_file :
  Kernel.ctx -> string -> labels:Flow.labels -> data:string -> unit r
val read_file : Kernel.ctx -> string -> string r
(** Strict read: the file's labels must already flow to the caller. *)

val read_file_taint : Kernel.ctx -> string -> string r
(** Reading with automatic taint: the caller's secrecy label absorbs
    the file's (and the lookup path's), and its integrity label drops
    to the intersection. Never denied for label reasons. *)

val write_file : Kernel.ctx -> string -> data:string -> unit r
val append_file : Kernel.ctx -> string -> data:string -> unit r
val unlink : Kernel.ctx -> string -> unit r

val rename : Kernel.ctx -> src:string -> dst:string -> unit r
(** Move a node. Requires write authority over both parent directories
    (their contents change) and over the node itself (renaming a
    write-protected object is a mutation of it). *)

val set_file_labels : Kernel.ctx -> string -> labels:Flow.labels -> unit r
(** Relabel a file or directory. The caller must have write authority
    over the node (the ordinary write flow check), and the relabeling
    itself must be a change the caller could apply to its own labels:
    dropping a secrecy tag from the node requires [t-], raising the
    node's integrity requires [t+]. *)

val readdir : Kernel.ctx -> string -> string list r
val stat : Kernel.ctx -> string -> Fs.stat r
val file_exists : Kernel.ctx -> string -> bool

(** {1 IPC} *)

val send :
  Kernel.ctx -> to_:int -> ?grant:Capability.Set.t -> ?use_caps:bool ->
  string -> unit r
(** Deliver a message carrying the caller's current labels. Granted
    capabilities must be owned by the sender.

    [use_caps] (default [false]) makes the send behave like a Flume
    endpoint that exercises the sender's capabilities: tags the sender
    could drop ([t-]) do not block the flow, and the message is
    delivered {e without} them (each such implicit declassification is
    audited). A plain send never exercises privilege. *)

val recv : Kernel.ctx -> Proc.message option r
(** Dequeue the next mailbox message; the caller absorbs the message's
    secrecy taint and receives any granted capabilities. *)

(** {1 Processes and gates} *)

val spawn :
  Kernel.ctx -> name:string -> ?labels:Flow.labels ->
  ?caps:Capability.Set.t -> ?limits:Resource.limits -> Kernel.body ->
  Proc.t r
(** Spawn a child (defaults: the caller's labels, no capabilities,
    the platform's default app limits). The child is queued; it runs
    at the next {!Kernel.run}. *)

val invoke_gate : Kernel.ctx -> string -> arg:string -> (string * Flow.labels) option r
(** Call a named gate synchronously; returns the gate process's
    response, if it produced one, with the labels it carried. The
    caller absorbs the response's secrecy taint. *)

val respond : Kernel.ctx -> string -> unit r
(** Set the caller's response buffer (what the HTTP gateway will try
    to export). The buffer is labeled with the caller's labels at the
    time of the call. *)

val consume : Kernel.ctx -> cpu:int -> unit r
(** Charge CPU quota explicitly. The platform uses this to meter
    trusted-path work done on a process's behalf (e.g. inline module
    invocation), so recursion through platform helpers is bounded by
    the same quota as everything else. *)

val debug_note : Kernel.ctx -> string -> unit r
(** Append a data-free note to the audit log — the only debugging
    channel available to developers (§3.5). *)
