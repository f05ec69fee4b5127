(* The gateway workloads: browse, post (closed loop) and flash (open
   loop over scheduled admission).

   Requests are raw [Request.t] values carrying each user's session
   cookie, handed straight to the gateway. Targets are chosen per
   viewer — own, friend, stranger — instead of uniformly, so the
   friends-only declassifier path dominates as it does for real users
   rather than the 403 path. Every write reuses a fixed per-user id
   window, so the store does not grow with run length. *)

open W5_http
open W5_platform
open W5_workload
module Kernel = W5_os.Kernel
module Sched = W5_os.Sched
module H = Harness

(* ---- world ---- *)

type size = {
  users : int;
  friends_per_user : int;  (** before symmetrization *)
  photos : int;
  posts : int;
  comments : int;  (** self-comments per blog post *)
}

let default_size =
  { users = 1000; friends_per_user = 3; photos = 8; posts = 2; comments = 2 }

type world = {
  platform : Platform.t;
  kernel : Kernel.t;
  names : string array;
  index : (string, int) Hashtbl.t;
  cookies : Headers.t array;
  initial_friends : int array array;
      (** owners who listed the viewer at setup (the graph is symmetric) *)
  befriended : (int * int, unit) Hashtbl.t;
      (** (owner, viewer): owner's friend list names viewer, now *)
  social : string;
  photos : string;
  blog : string;
  size : size;
}

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ e)

let login platform user =
  let response =
    Gateway.handler platform
      (Request.make ~client:user
         ~body:[ ("user", user); ("pass", user ^ "-pw") ]
         Request.POST "/login")
  in
  match Headers.cookies_set_by response.Response.headers with
  | [] -> failwith ("login failed for " ^ user)
  | jar ->
      Headers.set Headers.empty "Cookie"
        (String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) jar))

let expect_success what response =
  if not (Response.is_success response) then
    failwith
      (Printf.sprintf "%s: HTTP %d" what
         (Response.status_code response.Response.status))

(* Society, canaries, per-post self-comments (so blog reads run a
   store query over a non-empty collection), sessions, and the
   friendship model the leak oracle consults. *)
let setup ~seed size =
  let society =
    Populate.build ~seed ~users:size.users
      ~friends_per_user:size.friends_per_user ~photos_per_user:size.photos
      ~blog_posts_per_user:size.posts ()
  in
  let platform = society.Populate.platform in
  let names = Array.of_list society.Populate.users in
  let index = Hashtbl.create size.users in
  Array.iteri (fun i n -> Hashtbl.replace index n i) names;
  let rng = Rng.create ~seed:(seed + 7) in
  let cookies = Array.map (login platform) names in
  let blog = "/app/" ^ society.Populate.blog_id in
  Array.iteri
    (fun i user ->
      let account = Platform.account_exn platform user in
      (match
         Platform.write_user_record platform account ~file:"profile"
           (W5_store.Record.of_fields
              [
                ("user", user);
                ("canary", Soak.canary user);
                ("bio", Rng.string rng ~length:40);
              ])
       with
      | Ok () -> ()
      | Error e -> failwith (W5_os.Os_error.to_string e));
      for p = 0 to size.posts - 1 do
        for c = 0 to size.comments - 1 do
          expect_success "comment"
            (Gateway.handler platform
               (Request.make ~headers:cookies.(i) ~client:user
                  ~body:
                    [
                      ("action", "comment");
                      ("user", user);
                      ("id", Printf.sprintf "b%02d" p);
                      ("text", Printf.sprintf "note %d " c ^ Rng.string rng ~length:24);
                    ]
                  Request.POST blog))
        done
      done)
    names;
  let befriended = Hashtbl.create (size.users * 8) in
  let initial_friends =
    Array.mapi
      (fun owner user ->
        let account = Platform.account_exn platform user in
        match Platform.read_user_record platform account ~file:"friends" with
        | Error _ -> [||]
        | Ok r ->
            Array.of_list
              (List.filter_map
                 (fun f ->
                   Option.map
                     (fun viewer ->
                       Hashtbl.replace befriended (owner, viewer) ();
                       viewer)
                     (Hashtbl.find_opt index f))
                 (W5_store.Record.get_list r "friends")))
      names
  in
  {
    platform;
    kernel = Platform.kernel platform;
    names;
    index;
    cookies;
    initial_friends;
    befriended;
    social = "/app/" ^ society.Populate.social_id;
    photos = "/app/" ^ society.Populate.photo_id;
    blog;
    size;
  }

(* ---- traffic mixes ---- *)

type kind = Profile | Photos | Blog | Upload | Post | Befriend
type target_class = Own | Friend | Stranger

type mix = {
  kinds : (kind * int) list;
  targets : (target_class * int) list;  (** for reads *)
}

let browse_mix =
  {
    kinds = [ (Profile, 55); (Photos, 25); (Blog, 20) ];
    targets = [ (Own, 25); (Friend, 60); (Stranger, 15) ];
  }

let post_mix =
  {
    kinds =
      [
        (Profile, 15); (Photos, 10); (Blog, 10); (Upload, 30); (Post, 25);
        (Befriend, 10);
      ];
    targets = [ (Own, 70); (Friend, 20); (Stranger, 10) ];
  }

(* flash: browse's reads with ~10% writes; friendships stay fixed so
   the oracle is exact even when requests interleave *)
let flash_mix =
  {
    kinds = [ (Profile, 50); (Photos, 22); (Blog, 18); (Upload, 5); (Post, 5) ];
    targets = browse_mix.targets;
  }

(* New friends come from a fixed window of four per user, so friend
   lists stay bounded however long the run. *)
let befriend_window = 4

type spec = { viewer : int; kind : kind; target : int; req : Request.t }

let is_write = function
  | Upload | Post | Befriend -> true
  | Profile | Photos | Blog -> false

let gen w rng mix =
  let n = Array.length w.names in
  let viewer = Rng.int rng n in
  let kind = Rng.pick_weighted rng mix.kinds in
  let stranger () =
    let rec pick () =
      let t = Rng.int rng n in
      if t = viewer || Array.mem t w.initial_friends.(viewer) then pick ()
      else t
    in
    pick ()
  in
  let target =
    match kind with
    | Befriend -> (viewer + 1 + (Rng.int rng befriend_window * 97)) mod n
    | Upload | Post -> viewer
    | Profile | Photos | Blog -> (
        match Rng.pick_weighted rng mix.targets with
        | Own -> viewer
        | Friend when Array.length w.initial_friends.(viewer) > 0 ->
            let fs = w.initial_friends.(viewer) in
            fs.(Rng.int rng (Array.length fs))
        | Friend | Stranger -> stranger ())
  in
  let headers = w.cookies.(viewer) and client = w.names.(viewer) in
  let get path params =
    Request.make ~headers ~client Request.GET (Uri.with_query path params)
  in
  let post path form = Request.make ~headers ~client ~body:form Request.POST path in
  let tname = w.names.(target) in
  let req =
    match kind with
    | Profile -> get w.social [ ("user", tname) ]
    | Photos -> get w.photos [ ("action", "list"); ("user", tname) ]
    | Blog -> get w.blog [ ("action", "read"); ("user", tname) ]
    | Upload ->
        let id = Printf.sprintf "p%02d" (Rng.int rng w.size.photos) in
        post w.photos
          [ ("action", "upload"); ("id", id); ("data", "pix-" ^ Rng.string rng ~length:24) ]
    | Post ->
        let id = Printf.sprintf "b%02d" (Rng.int rng w.size.posts) in
        post w.blog
          [
            ("action", "post"); ("id", id); ("title", id);
            ("body", Rng.string rng ~length:48);
          ]
    | Befriend ->
        post w.social [ ("action", "add_friend"); ("friend", tname) ]
  in
  { viewer; kind; target; req }

(* ---- the oracle ----

   Checks one response in issue order, updating the friendship model
   as befriends succeed, so "had the owner befriended the viewer" is
   judged at the moment the request ran. *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable leaks : int;
  mutable own : int;
  mutable friend : int;
  mutable stranger : int;
  mutable reads : int;
  mutable writes : int;
  statuses : (int, int) Hashtbl.t;
}

let tally () =
  {
    attempted = 0; failed = 0; leaks = 0; own = 0; friend = 0; stranger = 0;
    reads = 0; writes = 0; statuses = Hashtbl.create 8;
  }

let statuses t =
  Hashtbl.fold (fun k v acc -> (string_of_int k, v) :: acc) t.statuses []
  |> List.sort compare

let check w t spec response =
  let code = Response.status_code response.Response.status in
  t.attempted <- t.attempted + 1;
  Hashtbl.replace t.statuses code
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.statuses code));
  let visible owner =
    owner = spec.viewer || Hashtbl.mem w.befriended (owner, spec.viewer)
  in
  let expected_ok =
    if is_write spec.kind then begin
      t.writes <- t.writes + 1;
      code = 200 || code = 302
    end
    else begin
      t.reads <- t.reads + 1;
      if spec.target = spec.viewer then t.own <- t.own + 1
      else if visible spec.target then t.friend <- t.friend + 1
      else t.stranger <- t.stranger + 1;
      code = if visible spec.target then 200 else 403
    end
  in
  if not expected_ok then t.failed <- t.failed + 1;
  if spec.kind = Befriend && code = 200 then
    Hashtbl.replace w.befriended (spec.viewer, spec.target) ();
  List.iter
    (fun owner_name ->
      let leaked =
        match Hashtbl.find_opt w.index owner_name with
        | Some owner -> not (visible owner)
        | None -> true
      in
      if leaked then t.leaks <- t.leaks + 1)
    (Soak.canary_owners response.Response.body)

let render_mix t =
  let share n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d in
  Printf.sprintf
    "targets own=%.3f friend=%.3f stranger=%.3f (of %d reads) | reads=%.3f writes=%.3f"
    (share t.own t.reads) (share t.friend t.reads) (share t.stranger t.reads)
    t.reads
    (share t.reads t.attempted) (share t.writes t.attempted)

(* ---- executing requests ---- *)

(* [sp = None] is the synchronous gateway, untraced; [Some sp] the
   same request as submit |> Kernel.run |> conclude, in spans. *)
let serve w sp spec =
  match sp with
  | None -> Gateway.handler w.platform spec.req
  | Some sp ->
      H.Spans.span sp "request" (fun () ->
          let p =
            H.Spans.span sp "gateway.submit" (fun () ->
                Gateway.submit w.platform spec.req)
          in
          H.Spans.span sp "kernel.run" (fun () -> Kernel.run w.kernel);
          H.Spans.span sp "gateway.conclude" (fun () ->
              Gateway.conclude w.platform p))

(* One closed-loop chunk: each request is sent when the previous one
   has returned. Returns the chunk's wall time; per-request service
   times go to [lat] (µs) and allocation around the calls to [words]. *)
let run_chunk w sp specs responses ~lat ~words =
  let n = Array.length specs in
  let start = H.now_ns () in
  for i = 0 to n - 1 do
    let w0 = Gc.minor_words () in
    let t0 = H.now_ns () in
    responses.(i) <- serve w sp specs.(i);
    let t1 = H.now_ns () in
    words := !words +. (Gc.minor_words () -. w0);
    Option.iter (fun s -> H.Sample.add s (H.us_of_ns (t1 - t0))) lat
  done;
  H.now_ns () - start

(* ---- flash: bursts over scheduled admission ---- *)

type burst_stats = {
  mutable peak_in_flight : int;
  mutable drain_ns : int;
}

(* Admit the whole burst, interleave it under the seeded scheduler,
   conclude in admission order. [due] is when the burst was due;
   latencies run from it to each conclusion. *)
let run_burst w sp sched bs specs responses ~due ~lat ~words =
  let n = Array.length specs in
  let w0 = Gc.minor_words () in
  let pendings =
    Array.map
      (fun spec ->
        H.Spans.opt sp "gateway.submit" (fun () -> Gateway.submit w.platform spec.req))
      specs
  in
  let in_flight =
    Array.fold_left (fun acc p -> if Gateway.in_flight p then acc + 1 else acc) 0 pendings
  in
  bs.peak_in_flight <- max bs.peak_in_flight in_flight;
  let d0 = H.now_ns () in
  H.Spans.opt sp "sched.drain" (fun () -> Sched.drain sched);
  bs.drain_ns <- bs.drain_ns + (H.now_ns () - d0);
  for i = 0 to n - 1 do
    responses.(i) <-
      H.Spans.opt sp "gateway.conclude" (fun () ->
          Gateway.conclude w.platform pendings.(i));
    Option.iter
      (fun s -> H.Sample.add s (H.us_of_ns (H.now_ns () - due)))
      lat
  done;
  words := !words +. (Gc.minor_words () -. w0)
