(** Per-client request throttling (§3.5 "Performance and resource
    allocation").

    Process quotas stop a rogue {e application}; this token bucket
    stops a rogue {e client} hammering the front door. One bucket per
    key (client identity), refilled in whole tokens per kernel tick.
    Provider configuration, enforced by the gateway before any
    developer code runs.

    Anonymous keys are chosen by the client, so the table must stay
    bounded: a bucket that has refilled to capacity answers exactly
    like a missing one, and such buckets are dropped by a sweep that
    runs whenever the table has doubled since the last sweep. Keys
    that spent tokens within the last [capacity / refill_per_tick]
    ticks stay. With [refill_per_tick = 0] nothing ever refills, so
    nothing is dropped: the table keeps every key that ever spent a
    token. [now] must never run backwards (the kernel tick doesn't). *)

type t

val create : ?capacity:int -> ?refill_per_tick:int -> unit -> t
(** Defaults: capacity 20, refill 1 token per kernel tick. *)

val allow : t -> key:string -> now:int -> bool
(** Take one token from [key]'s bucket at time [now]; [false] means
    throttled. Buckets start full. *)

val remaining : t -> key:string -> now:int -> int
val reset : t -> key:string -> unit
