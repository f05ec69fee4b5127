(** In-place substring search.

    The one implementation behind the store's [field_contains]
    predicate, the declassifiers' marked-span scans, the gateway's
    [/audit?filter=] and the soak leak check. It compares bytes where
    they lie — no [String.sub] per position — and runs in constant
    stack, so megabyte haystacks cost neither allocation nor stack
    depth. *)

val find : needle:string -> from:int -> string -> int option
(** [find ~needle ~from hay] is the least [i >= from] at which
    [needle] occurs in [hay], if any; [from] must be non-negative. The
    empty needle occurs at [from] whenever
    [from <= String.length hay]. *)

val contains : needle:string -> string -> bool
(** [contains ~needle hay] is [find ~needle ~from:0 hay <> None],
    without allocating. *)
