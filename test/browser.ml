(* A client that remembers what crossed the perimeter to it.

   [make] wraps the server it hands to [W5_http.Client.make], so every
   response body the client receives, redirect hops included, is kept:
   the tests' "what reached the outside world" oracle. The library
   client keeps nothing. *)

open W5_http

type t = {
  client : Client.t;
  bodies : string list ref;
}

let make ?name server =
  let bodies = ref [] in
  let record request =
    let response = server request in
    bodies := response.Response.body :: !bodies;
    response
  in
  { client = Client.make ?name record; bodies }

let get ?params t path = Client.get ?params t.client path
let post ?form t path = Client.post ?form t.client path
let cookies t = Client.cookies t.client

(* A browser that has logged in as [user], the way a workload's
   clients do. *)
let login server ~user ~password =
  let t = make ~name:user server in
  let r = post t "/login" ~form:[ ("user", user); ("pass", password) ] in
  if not (Response.is_success r) then Alcotest.failf "login failed for %s" user;
  t

let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec matches_at i j =
    j = nn || (haystack.[i + j] = needle.[j] && matches_at i (j + 1))
  in
  let rec scan i = i + nn <= hn && (matches_at i 0 || scan (i + 1)) in
  scan 0

(* Has any received body contained [needle]? *)
let saw t needle = List.exists (fun body -> contains body needle) !(t.bodies)
