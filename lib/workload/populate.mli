(** Seeded population of a platform: users, friend graphs, content,
    declassifiers — the synthetic stand-in for the real user bases the
    paper's scenarios assume (DESIGN.md §2, substitution table).

    All generation is driven by an {!Rng.t}, so the same seed yields
    the same society on every run. *)

open W5_platform

type society = {
  platform : Platform.t;
  users : string list;
  social_id : string;   (** app id of the published social app *)
  photo_id : string;
  blog_id : string;
}

val user_name : int -> string
(** ["user0000"], ["user0001"], … *)

val build :
  ?seed:int -> ?enforcing:bool -> users:int -> friends_per_user:int ->
  photos_per_user:int -> blog_posts_per_user:int -> unit -> society
(** Boot a platform; publish the social, photo and blog apps under a
    ["core"] developer; sign everybody up; enable the apps and
    delegate write for everyone; wire a random friend graph (made
    symmetric); seed photos and blog posts through the real app
    handlers over HTTP; and install a friends-only declassifier for
    every user. *)

val build_showcase : ?seed:int -> ?users:int -> unit -> society
(** [build], then the rest of the configuration surface the static
    analyzer models: the full legitimate app suite (messages, calendar,
    polls, dating, groups, mashup, recommend, the closed-binary
    chameleon) plus third-party map/crop modules, a provider vetted
    list, per-user module choices, one integrity-protected user, one
    read-protected user (declassifier reinstalled and read grants
    issued so nothing breaks), and a three-member group with posts.
    This is the platform `w5 vet` analyzes and the one the committed
    golden report describes — keep it deterministic. *)

val login : society -> string -> W5_http.Client.t
(** A browser logged in as the user. *)

val password : string -> string
(** The password a built society gives the user. *)

val random_friend_graph :
  Rng.t -> users:string list -> friends_per_user:int ->
  (string * string list) list
(** Symmetric adjacency (each listed edge appears in both rows). *)

val fill_dependency_graph :
  ?seed:int -> Platform.t -> modules:int -> imports_per_module:int ->
  string list
(** Publish [modules] trivial modules with a random import structure —
    the synthetic corpus for the code-search experiments (E5). Returns
    the app ids. *)
