(** The label algebra keeps no cache: tags and labels are plain
    immutable values, and the lattice judgments are plain set
    operations (DESIGN §14). *)

val reset_all : unit -> unit
(** A no-op, kept only because the end-to-end benchmark under
    [perfbench/] calls it between runs. Nothing in lib, bin, examples
    or test may call it ([make check] greps for callers). *)
