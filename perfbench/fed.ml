(* The sync workload: two providers, tens of linked users, each
   mirroring profile, friends and a photos directory. A round edits a
   fixed number of seeded records on either side — so some edits land
   on the same record from both sides and merge — and then runs every
   link once. The gateway is not involved.

   Edits overwrite a fixed set of records with fixed-size values, and
   merged friend lists draw from a fixed pool of names, so replicas do
   not grow with run length. *)

open W5_platform
open W5_workload
module Sync = W5_federation.Sync
module Record = W5_store.Record
module H = Harness

type size = {
  users : int;
  photos : int;
  edits_per_round : int;
}

let default_size = { users = 50; photos = 20; edits_per_round = 25 }

type world = {
  a : Sync.side;
  b : Sync.side;
  names : string array;
  links : Sync.link array;
  size : size;
}

let friend_pool = 8

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ e)

let os_ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ W5_os.Os_error.to_string e)

let photo_file i = Printf.sprintf "photos/p%02d" i

let write side user ~file record =
  let account = Platform.account_exn side.Sync.platform user in
  os_ok file (Platform.write_user_record side.Sync.platform account ~file record)

let friends_record rng names =
  let pool = List.init friend_pool (fun i -> names.(i mod Array.length names)) in
  Record.set_list (Record.of_fields []) "friends" (Rng.sample rng 4 pool)

let kernels w = [ Platform.kernel w.a.Sync.platform; Platform.kernel w.b.Sync.platform ]

let setup ~seed size =
  let rng = Rng.create ~seed in
  let side provider_name = { Sync.platform = Platform.create (); provider_name } in
  let a = side "east" and b = side "west" in
  let names = Array.init size.users (Printf.sprintf "fed%03d") in
  let links =
    Array.map
      (fun user ->
        List.iter
          (fun s ->
            ignore
              (ok_or_fail "signup"
                 (Platform.signup s.Sync.platform ~user ~password:"pw")))
          [ a; b ];
        write a user ~file:"profile"
          (Record.of_fields [ ("user", user); ("bio", Rng.string rng ~length:32) ]);
        write a user ~file:"friends" (friends_record rng names);
        os_ok "mkdir"
          (Platform.user_mkdir a.Sync.platform
             (Platform.account_exn a.Sync.platform user)
             ~dir:"photos");
        for i = 0 to size.photos - 1 do
          write a user ~file:(photo_file i)
            (Record.of_fields [ ("pixels", Rng.string rng ~length:64) ])
        done;
        let link =
          ok_or_fail "establish"
            (Sync.establish ~a ~b ~user ~files:[ "profile"; "friends" ] ())
        in
        Sync.add_directory link "photos";
        ignore (ok_or_fail "initial sync" (Sync.sync link));
        if not (Sync.converged link) then failwith ("initial sync of " ^ user);
        link)
      names
  in
  let w = { a; b; names; links; size } in
  List.iter (fun k -> ignore (W5_os.Kernel.reap k)) (kernels w);
  w

(* One seeded edit on either replica: the profile is the hot record,
   so concurrent edits of it from both sides are common. *)
let edit w rng ~round =
  let user = w.names.(Rng.int rng (Array.length w.names)) in
  let side = if Rng.bool rng then w.a else w.b in
  match Rng.int rng 10 with
  | 0 | 1 | 2 | 3 ->
      write side user ~file:"profile"
        (Record.of_fields
           [
             ("user", user);
             ("bio", Rng.string rng ~length:32);
             ("rev", string_of_int (round mod 1000));
           ])
  | 4 | 5 -> write side user ~file:"friends" (friends_record rng w.names)
  | _ ->
      write side user
        ~file:(photo_file (Rng.int rng w.size.photos))
        (Record.of_fields [ ("pixels", Rng.string rng ~length:64) ])

type tally = {
  mutable link_rounds : int;
  mutable reaped : int;
  mutable errors : int;
  mutable moved : int;
  mutable merged : int;
  mutable examined : int;
  mutable sync_ns : int;
}

let tally () =
  {
    link_rounds = 0; reaped = 0; errors = 0; moved = 0; merged = 0; examined = 0;
    sync_ns = 0;
  }

(* One round: the edits, then every link once, then the providers'
   process-table maintenance, in spans when [sp] is given. Returns the
   time spent inside [Sync.sync].

   Sync runs every step in a provider-side process that nothing reaps:
   the gateway reaps only when it concludes a request, and these
   providers serve none. Left alone, each round adds thousands of dead
   processes to both kernels (about 1 MB), so the benchmark reaps
   between rounds, as a provider's periodic maintenance would, and
   counts what it reaped. *)
let round w rng sp t ~round:r =
  H.Spans.opt sp "edits" (fun () ->
      for _ = 1 to w.size.edits_per_round do
        edit w rng ~round:r
      done);
  let spent = ref 0 in
  Array.iter
    (fun link ->
      let t0 = H.now_ns () in
      let result = H.Spans.opt sp "federation.sync" (fun () -> Sync.sync link) in
      spent := !spent + (H.now_ns () - t0);
      t.link_rounds <- t.link_rounds + 1;
      match result with
      | Error _ -> t.errors <- t.errors + 1
      | Ok st ->
          let moved = st.Sync.a_to_b + st.Sync.b_to_a + st.Sync.merged in
          t.moved <- t.moved + moved;
          t.merged <- t.merged + st.Sync.merged;
          t.examined <- t.examined + moved + st.Sync.unchanged)
    w.links;
  t.sync_ns <- t.sync_ns + !spent;
  List.iter (fun k -> t.reaped <- t.reaped + W5_os.Kernel.reap k) (kernels w);
  !spent

let unconverged w =
  Array.fold_left
    (fun acc link -> if Sync.converged link then acc else acc + 1)
    0 w.links
