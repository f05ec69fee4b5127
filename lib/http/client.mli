(** A simulated browser outside the security perimeter.

    A client holds a cookie jar, addresses a server (any
    [Request.t -> Response.t] function — in practice the platform's
    perimeter handler), and follows redirects. Everything a client
    ever receives has, by construction, crossed the perimeter: tests
    assert on client-visible bytes to prove exfiltration is or is not
    possible. A client keeps no bodies: a test that needs everything
    a client received wraps the [server] it passes to {!make}. *)

type server = Request.t -> Response.t

type t

val make : ?name:string -> server -> t
val name : t -> string
val cookies : t -> (string * string) list

val get :
  ?params:(string * string) list -> t -> string -> Response.t
(** [get client "/path"]; [params] are appended to the query string.
    Follows up to 5 redirects, carrying cookies. *)

val post :
  ?form:(string * string) list -> t -> string -> Response.t
