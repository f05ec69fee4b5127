(** The security perimeter: the only place data leaves the platform.

    Implements the paper's boilerplate privacy policy — "Bob's data
    can only leave the security perimeter if destined for Bob's
    browser" — plus the user-authorized holes:

    + every secrecy tag on the outgoing payload that belongs to the
      authenticated viewer is allowed through (it is going to its
      owner's browser);
    + every other tag must be cleared by a declassifier gate that the
      tag's owner has authorized for it; the gate is invoked with the
      payload and the viewer's identity and must answer with a payload
      no longer carrying the tag;
    + anything still tainted after that is refused, and the refusal is
      audited (data-free).

    Commingled payloads work naturally: a page mixing Alice's and
    Bob's data needs Alice's tag cleared by Alice's declassifier and
    Bob's by Bob's. *)

open W5_difc

(** Why an export was refused. *)
type refusal =
  | No_rule of Tag.t        (** tag owner authorized no declassifier *)
  | Refused_by of { tag : Tag.t; gate : string }
  | Gate_failed of { tag : Tag.t; gate : string; error : string }
  | Unknown_tag of Tag.t    (** no account owns the tag *)

val pp_refusal : Format.formatter -> refusal -> unit
(** Names the tag by {!Tag.name}, never by its id: the text is the 403
    body {!Gateway} sends, and the id is a counter every platform in
    the process shares. *)

val refusal_to_string : refusal -> string

val export :
  Platform.t -> ?source:int -> viewer:Account.t option -> data:string ->
  labels:Flow.labels -> unit -> (string, refusal) result
(** Push a labeled payload through the perimeter toward [viewer]
    (None = an unauthenticated client). On success the returned
    payload is exactly what crosses the wire — declassifiers may have
    transformed it. [source] (default 0, the kernel) is the pid whose
    response is being exported; the audit record carries it so a
    denial can be traced back to the process that accumulated the
    taint. *)
