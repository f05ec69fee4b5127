(* Does the page a response carries contain [needle]? The examples
   check what crossed the perimeter to a browser through this. *)
let shows (response : W5_http.Response.t) needle =
  let body = response.W5_http.Response.body in
  let bn = String.length body and nn = String.length needle in
  let rec matches_at i j =
    j = nn || (body.[i + j] = needle.[j] && matches_at i (j + 1))
  in
  let rec scan i = i + nn <= bn && (matches_at i 0 || scan (i + 1)) in
  scan 0
