(* Non-interference, end to end: randomly generated adversarial
   applications — arbitrary sequences of syscalls — are uploaded,
   executed for a non-owner viewer, and their response pushed through
   the real perimeter. The property: the secret marker never reaches
   any client except the data's owner (no declassifier is installed).

   This is the reproduction's load-bearing property test: it does not
   know *how* a program might try to leak, only that whatever it does
   compose out of the public API must not work. *)

open W5_difc
open W5_http
open W5_platform

(* The adversary's instruction set. [acc] is the program's private
   accumulator (a plain OCaml string — inside the process, everything
   is fair game). *)
type op =
  | Read_secret_taint
  | Read_secret_strict
  | Copy_to_public of int      (* create /apps/drop-<n> with bottom labels *)
  | Copy_to_tainted of int     (* create a file labeled with current taint *)
  | Read_back of int           (* taint-read a previously written file *)
  | Try_declassify
  | Try_set_bottom
  | Add_noise                  (* append innocuous data *)
  | Respond_now
  | Spawn_and_message          (* launder through a child process *)
  | Call_declassifier          (* invoke the owner's gate directly *)
  | Rename_secret of int       (* try to move the secret file somewhere public *)

let op_name = function
  | Read_secret_taint -> "read_taint"
  | Read_secret_strict -> "read_strict"
  | Copy_to_public n -> Printf.sprintf "copy_pub_%d" n
  | Copy_to_tainted n -> Printf.sprintf "copy_taint_%d" n
  | Read_back n -> Printf.sprintf "read_back_%d" n
  | Try_declassify -> "declassify"
  | Try_set_bottom -> "set_bottom"
  | Add_noise -> "noise"
  | Respond_now -> "respond"
  | Spawn_and_message -> "spawn_message"
  | Call_declassifier -> "call_gate"
  | Rename_secret n -> Printf.sprintf "rename_%d" n

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (4, return Read_secret_taint);
        (2, return Read_secret_strict);
        (2, map (fun n -> Copy_to_public (n mod 4)) (0 -- 3));
        (2, map (fun n -> Copy_to_tainted (n mod 4)) (0 -- 3));
        (2, map (fun n -> Read_back (n mod 4)) (0 -- 3));
        (2, return Try_declassify);
        (2, return Try_set_bottom);
        (1, return Add_noise);
        (2, return Respond_now);
        (2, return Spawn_and_message);
        (2, return Call_declassifier);
        (2, map (fun n -> Rename_secret (n mod 4)) (0 -- 3));
      ])

let arb_program =
  QCheck.make
    ~print:(fun ops -> String.concat ";" (List.map op_name ops))
    QCheck.Gen.(list_size (1 -- 15) gen_op)

let secret_marker = "XSECRETX"

(* Interpret a program as an app handler. All failures are swallowed:
   a real adversary would also ignore errors and push on. *)
let adversary_handler program target_user ctx (_ : App_registry.env) =
  let open W5_os in
  let acc = ref "start:" in
  let drop_path n = Printf.sprintf "/apps/drop-%d-%d" (Syscall.pid ctx) n in
  let secret_path = "/users/" ^ target_user ^ "/profile" in
  let interpret = function
    | Read_secret_taint -> (
        match Syscall.read_file_taint ctx secret_path with
        | Ok data -> acc := !acc ^ data
        | Error _ -> ())
    | Read_secret_strict -> (
        match Syscall.read_file ctx secret_path with
        | Ok data -> acc := !acc ^ data
        | Error _ -> ())
    | Copy_to_public n ->
        ignore
          (Syscall.create_file ctx (drop_path n) ~labels:Flow.bottom ~data:!acc)
    | Copy_to_tainted n ->
        ignore
          (Syscall.create_file ctx (drop_path n)
             ~labels:(Syscall.my_labels ctx)
             ~data:!acc)
    | Read_back n -> (
        match Syscall.read_file_taint ctx (drop_path n) with
        | Ok data -> acc := !acc ^ "|" ^ data
        | Error _ -> ())
    | Try_declassify ->
        Label.iter
          (fun tag -> ignore (Syscall.declassify_self ctx tag))
          (Syscall.my_labels ctx).Flow.secrecy
    | Try_set_bottom -> ignore (Syscall.set_labels ctx Flow.bottom)
    | Add_noise -> acc := !acc ^ "noise"
    | Respond_now -> ignore (Syscall.respond ctx !acc)
    | Spawn_and_message -> (
        (* classic laundering attempt: hand the loot to a child and
           have the child respond with lower labels *)
        match
          Syscall.spawn ctx ~name:"mule" ~labels:Flow.bottom (fun _ -> ())
        with
        | Ok mule -> (
            match Syscall.send ctx ~to_:mule.W5_os.Proc.pid !acc with
            | Ok () -> ()
            | Error _ -> ())
        | Error _ -> ())
    | Rename_secret n ->
        ignore (Syscall.rename ctx ~src:secret_path ~dst:(drop_path n));
        ignore
          (Syscall.rename ctx ~src:secret_path
             ~dst:(Printf.sprintf "/apps/grab-%d" n))
    | Call_declassifier -> (
        (* ask the owner's own gate to launder the accumulator *)
        let gate =
          Declassifier.gate_name ~owner:target_user ~name:"friends"
        in
        match
          Syscall.invoke_gate ctx gate
            ~arg:(Declassifier.encode_arg ~viewer:(Some "mallory") ~data:!acc)
        with
        | Ok (Some (out, _)) -> acc := !acc ^ "|" ^ out
        | Ok None | Error _ -> ())
  in
  List.iter interpret program;
  ignore (Syscall.respond ctx !acc)

let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= hn && (String.sub haystack i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

(* One arena per case: alice owns the marker, mallory runs the app. *)
let run_case ?(with_declassifier = false) program =
  let platform = Platform.create () in
  let alice =
    match Platform.signup platform ~user:"alice" ~password:"pw" with
    | Ok a -> a
    | Error e -> failwith e
  in
  ignore
    (Platform.write_user_record platform alice ~file:"profile"
       (W5_store.Record.of_fields [ ("ssn", secret_marker) ]));
  if with_declassifier then
    (* a real friends-only gate exists, but mallory is no friend: the
       adversary may invoke it all it wants *)
    ignore
      (Declassifier.install_and_authorize platform ~account:alice
         ~name:"friends" Declassifier.friends_only);
  ignore (Platform.signup platform ~user:"mallory" ~password:"pw");
  let dev = Principal.make Principal.Developer "adv" in
  (match
     App_registry.publish (Platform.registry platform) ~dev ~name:"adv"
       ~version:"1.0"
       (adversary_handler program "alice")
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  (match Platform.enable_app platform ~user:"mallory" ~app:"adv/adv" with
  | Ok () -> ()
  | Error e -> failwith e);
  let mallory = Browser.make ~name:"mallory" (Gateway.handler platform) in
  ignore (Browser.post mallory "/login" ~form:[ ("user", "mallory"); ("pass", "pw") ]);
  ignore (Browser.get mallory "/app/adv/adv");
  let anon = Browser.make (Gateway.handler platform) in
  ignore (Browser.get anon "/app/adv/adv");
  (* the oracle: nothing any outside client ever received contains the
     marker *)
  List.for_all
    (fun client -> not (Browser.saw client secret_marker))
    [ mallory; anon ]

let prop_no_exfiltration =
  QCheck.Test.make ~name:"random adversaries cannot exfiltrate" ~count:250
    arb_program (fun program -> run_case program)

let prop_no_exfiltration_with_gate =
  QCheck.Test.make
    ~name:"random adversaries cannot abuse an installed declassifier"
    ~count:250 arb_program (fun program ->
      run_case ~with_declassifier:true program)

(* The sanity half: the same machinery does deliver the marker to its
   owner, so the property above is not vacuously true. *)
let test_owner_still_sees_data () =
  let program = [ Read_secret_taint; Respond_now ] in
  let platform = Platform.create () in
  let alice =
    match Platform.signup platform ~user:"alice" ~password:"pw" with
    | Ok a -> a
    | Error e -> failwith e
  in
  ignore
    (Platform.write_user_record platform alice ~file:"profile"
       (W5_store.Record.of_fields [ ("ssn", secret_marker) ]));
  let dev = Principal.make Principal.Developer "adv" in
  (match
     App_registry.publish (Platform.registry platform) ~dev ~name:"adv"
       ~version:"1.0"
       (adversary_handler program "alice")
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  (match Platform.enable_app platform ~user:"alice" ~app:"adv/adv" with
  | Ok () -> ()
  | Error e -> failwith e);
  let owner = Browser.make ~name:"alice" (Gateway.handler platform) in
  ignore (Browser.post owner "/login" ~form:[ ("user", "alice"); ("pass", "pw") ]);
  ignore (Browser.get owner "/app/adv/adv");
  Alcotest.(check bool)
    "owner receives own secret" true (Browser.saw owner secret_marker)

let suite =
  [ Alcotest.test_case "owner still sees data" `Quick test_owner_still_sees_data ]
  @ [
      QCheck_alcotest.to_alcotest prop_no_exfiltration;
      QCheck_alcotest.to_alcotest prop_no_exfiltration_with_gate;
    ]

(* ---- the perimeter as a decision procedure ----

   For arbitrary commingled payloads and arbitrary friend lists, the
   perimeter must agree exactly with the declarative rule:

     export allowed  <=>  for every foreign tag on the payload, the
                          viewer is in that tag's owner's friend list

   (with friends_only installed for every owner). This pins down the
   perimeter's semantics, not just single examples. *)

let prop_perimeter_matches_semantics =
  let arb =
    QCheck.make
      ~print:(fun (taint_a, taint_b, fa, fb, viewer) ->
        Printf.sprintf "taintA=%b taintB=%b friendsA=%d friendsB=%d viewer=%d"
          taint_a taint_b fa fb viewer)
      QCheck.Gen.(
        tup5 bool bool (0 -- 3) (0 -- 3) (0 -- 2))
  in
  QCheck.Test.make ~name:"perimeter agrees with declarative friend rule"
    ~count:80 arb (fun (taint_a, taint_b, friends_a, friends_b, viewer_idx) ->
      let platform = Platform.create () in
      let signup u =
        match Platform.signup platform ~user:u ~password:"pw" with
        | Ok a -> a
        | Error e -> failwith e
      in
      let alice = signup "alice" and bob = signup "bobby" in
      let viewers = [ "alice"; "bobby"; "carol" ] in
      ignore (signup "carol");
      let viewer_name = List.nth viewers viewer_idx in
      let viewer = Platform.find_account platform viewer_name in
      (* friend lists are a 2-bit mask: bit0 = alice-side viewer?, we
         simply use subsets of the viewer pool *)
      let subsets = [ []; [ "alice" ]; [ "bobby" ]; [ "alice"; "bobby"; "carol" ] ] in
      let set_friends (account : Account.t) subset =
        match
          Platform.write_user_record platform account ~file:"friends"
            (W5_store.Record.set_list W5_store.Record.empty "friends" subset)
        with
        | Ok () -> ()
        | Error e -> failwith (W5_os.Os_error.to_string e)
      in
      set_friends alice (List.nth subsets friends_a);
      set_friends bob (List.nth subsets friends_b);
      List.iter
        (fun account ->
          ignore
            (Declassifier.install_and_authorize platform ~account
               ~name:"friends" Declassifier.friends_only))
        [ alice; bob ];
      let secrecy =
        List.filter_map Fun.id
          [
            (if taint_a then Some alice.Account.secret_tag else None);
            (if taint_b then Some bob.Account.secret_tag else None);
          ]
      in
      let labels = Flow.make ~secrecy:(Label.of_list secrecy) () in
      let allowed_for owner_name subset (account : Account.t) tainted =
        (not tainted)
        || viewer_name = owner_name
        || (match viewer with
           | Some (v : Account.t) ->
               Account.owns_tag v account.Account.secret_tag
           | None -> false)
        || List.mem viewer_name subset
      in
      let expected =
        allowed_for "alice" (List.nth subsets friends_a) alice taint_a
        && allowed_for "bobby" (List.nth subsets friends_b) bob taint_b
      in
      let actual =
        match Perimeter.export platform ~viewer ~data:"payload" ~labels () with
        | Ok _ -> true
        | Error _ -> false
      in
      expected = actual)

let suite =
  suite @ [ QCheck_alcotest.to_alcotest prop_perimeter_matches_semantics ]

(* a third arena: the victim has read protection on — the adversary
   should fail even earlier (at the read), and still never leak *)
let prop_no_exfiltration_read_protected =
  QCheck.Test.make
    ~name:"random adversaries vs a read-protected victim" ~count:150
    arb_program (fun program ->
      let platform = Platform.create () in
      let alice =
        match Platform.signup platform ~user:"alice" ~password:"pw" with
        | Ok a -> a
        | Error e -> failwith e
      in
      ignore (Platform.enable_read_protection platform alice);
      ignore
        (Platform.write_user_record platform alice ~file:"profile"
           (W5_store.Record.of_fields [ ("ssn", secret_marker) ]));
      ignore (Platform.signup platform ~user:"mallory" ~password:"pw");
      let dev = Principal.make Principal.Developer "adv" in
      (match
         App_registry.publish (Platform.registry platform) ~dev ~name:"adv"
           ~version:"1.0"
           (adversary_handler program "alice")
       with
      | Ok _ -> ()
      | Error e -> failwith e);
      (match Platform.enable_app platform ~user:"mallory" ~app:"adv/adv" with
      | Ok () -> ()
      | Error e -> failwith e);
      let mallory = Browser.make ~name:"mallory" (Gateway.handler platform) in
      ignore
        (Browser.post mallory "/login" ~form:[ ("user", "mallory"); ("pass", "pw") ]);
      ignore (Browser.get mallory "/app/adv/adv");
      not (Browser.saw mallory secret_marker))

let suite =
  suite @ [ QCheck_alcotest.to_alcotest prop_no_exfiltration_read_protected ]

(* ---- arena 4: attacking a group wall ----

   The group's restricted tag means a non-member adversary should fail
   at the *read*; even programs that somehow accumulate the payload
   (e.g. via the group gate) must never deliver the marker to the
   non-member's browser. *)

let group_marker = "XGROUPSECRETX"

let group_adversary program ctx (_ : App_registry.env) =
  let open W5_os in
  let acc = ref "start:" in
  let wall = "/groups/cabal/post" in
  let interpret = function
    | Read_secret_taint | Read_secret_strict -> (
        match Syscall.read_file_taint ctx wall with
        | Ok data -> acc := !acc ^ data
        | Error _ -> ())
    | Copy_to_public n | Copy_to_tainted n -> (
        ignore n;
        match
          Syscall.create_file ctx
            (Printf.sprintf "/apps/gdrop-%d" (Syscall.pid ctx))
            ~labels:Flow.bottom ~data:!acc
        with
        | Ok () | Error _ -> ())
    | Read_back _ | Add_noise -> acc := !acc ^ "noise"
    | Try_declassify ->
        Label.iter
          (fun tag -> ignore (Syscall.declassify_self ctx tag))
          (Syscall.my_labels ctx).Flow.secrecy
    | Try_set_bottom -> ignore (Syscall.set_labels ctx Flow.bottom)
    | Respond_now -> ignore (Syscall.respond ctx !acc)
    | Spawn_and_message | Call_declassifier | Rename_secret _ -> (
        (* abuse the group's own gate *)
        match
          Syscall.invoke_gate ctx "declass/alice/group-cabal"
            ~arg:(Declassifier.encode_arg ~viewer:(Some "mallory") ~data:!acc)
        with
        | Ok (Some (out, _)) -> acc := !acc ^ out
        | Ok None | Error _ -> ())
  in
  List.iter interpret program;
  ignore (W5_os.Syscall.respond ctx !acc)

let prop_group_wall_safe =
  QCheck.Test.make ~name:"random adversaries cannot raid a group" ~count:150
    arb_program (fun program ->
      let platform = Platform.create () in
      let signup u =
        match Platform.signup platform ~user:u ~password:"pw" with
        | Ok a -> a
        | Error e -> failwith e
      in
      let alice = signup "alice" in
      ignore (signup "mallory");
      let group =
        match Group.create platform ~founder:alice ~name:"cabal" with
        | Ok g -> g
        | Error e -> failwith e
      in
      (match Group.post platform group ~author:alice ~id:"post" ~body:group_marker with
      | Ok () -> ()
      | Error e -> failwith (W5_os.Os_error.to_string e));
      let dev = Principal.make Principal.Developer "adv" in
      (match
         App_registry.publish (Platform.registry platform) ~dev ~name:"adv"
           ~version:"1.0" (group_adversary program)
       with
      | Ok _ -> ()
      | Error e -> failwith e);
      (match Platform.enable_app platform ~user:"mallory" ~app:"adv/adv" with
      | Ok () -> ()
      | Error e -> failwith e);
      let mallory = Browser.make ~name:"mallory" (Gateway.handler platform) in
      ignore
        (Browser.post mallory "/login" ~form:[ ("user", "mallory"); ("pass", "pw") ]);
      ignore (Browser.get mallory "/app/adv/adv");
      not (Browser.saw mallory group_marker))

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_group_wall_safe ]

(* ---- arena 5: noninterference under interleaving ----

   Alice (high) and mallory (low) drive concurrent request streams
   through the gateway's scheduled-admission path: every request is
   admitted before any application code runs, then a seeded scheduler
   interleaves all the in-flight processes at syscall granularity.
   Whatever the interleaving, mallory's entire observed byte stream
   must be independent of alice's differently-labeled data: the same
   adversary program run against two different secrets — and against
   two different scheduler seeds — must hand mallory byte-identical
   responses (tag ids modulo renaming: the process-global tag counter
   offsets between in-process runs). *)

(* erase the numeric part of every [#N] token: tag ids differ across
   in-process runs only by a uniform counter offset *)
let strip_tag_ids text =
  let buf = Buffer.create (String.length text) in
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    (if text.[!i] = '#' then begin
       Buffer.add_char buf '#';
       incr i;
       while !i < n && text.[!i] >= '0' && text.[!i] <= '9' do
         incr i
       done
     end
     else begin
       Buffer.add_char buf text.[!i];
       incr i
     end)
  done;
  Buffer.contents buf

(* alice's fixed, read-only stream: look at her own profile. It never
   mutates shared state, so the only way it could reach mallory's
   stream is a label-check leak. *)
let benign_self_handler ctx (_ : App_registry.env) =
  let open W5_os in
  match Syscall.read_file_taint ctx "/users/alice/profile" with
  | Ok data -> ignore (Syscall.respond ctx data)
  | Error _ -> ignore (Syscall.respond ctx "no-profile")

(* Run both streams concurrently; returns (mallory's concatenated
   normalized stream, alice's concatenated stream). *)
let interleaved_run ~seed ~secret program =
  let platform = Platform.create () in
  let alice =
    match Platform.signup platform ~user:"alice" ~password:"pw" with
    | Ok a -> a
    | Error e -> failwith e
  in
  ignore
    (Platform.write_user_record platform alice ~file:"profile"
       (W5_store.Record.of_fields [ ("ssn", secret) ]));
  ignore (Platform.signup platform ~user:"mallory" ~password:"pw");
  let dev = Principal.make Principal.Developer "adv" in
  let publish name handler =
    match
      App_registry.publish (Platform.registry platform) ~dev ~name
        ~version:"1.0" handler
    with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  publish "adv" (adversary_handler program "alice");
  publish "self" benign_self_handler;
  (match Platform.enable_app platform ~user:"mallory" ~app:"adv/adv" with
  | Ok () -> ()
  | Error e -> failwith e);
  (match Platform.enable_app platform ~user:"alice" ~app:"adv/self" with
  | Ok () -> ()
  | Error e -> failwith e);
  let login user =
    let client = Browser.make ~name:user (Gateway.handler platform) in
    ignore (Browser.post client "/login" ~form:[ ("user", user); ("pass", "pw") ]);
    match Browser.cookies client with
    | [] -> Headers.empty
    | jar ->
        Headers.set Headers.empty "Cookie"
          (String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) jar))
  in
  let alice_jar = login "alice" and mallory_jar = login "mallory" in
  (* admit both streams in full, interleave, then conclude in
     admission order *)
  let pendings =
    List.concat_map
      (fun _ ->
        [
          ( "alice",
            Gateway.submit platform
              (Request.make ~headers:alice_jar ~client:"alice" Request.GET
                 "/app/adv/self") );
          ( "mallory",
            Gateway.submit platform
              (Request.make ~headers:mallory_jar ~client:"mallory" Request.GET
                 "/app/adv/adv") );
        ])
      [ 1; 2; 3 ]
  in
  W5_os.Sched.drain
    (W5_os.Sched.create ~quantum:2 ~policy:(W5_os.Sched.Seeded seed)
       (Platform.kernel platform));
  let stream_of who =
    String.concat "\n--\n"
      (List.filter_map
         (fun (viewer, pending) ->
           if viewer = who then
             Some (Gateway.conclude platform pending).Response.body
           else None)
         pendings)
  in
  (* conclusion order is the admission order either way; concluding
     alice's first is harmless because all processes already ran *)
  (strip_tag_ids (stream_of "mallory"), stream_of "alice")

let arb_interleaved_case =
  QCheck.make
    ~print:(fun (ops, seed) ->
      Printf.sprintf "seed=%d prog=%s" seed
        (String.concat ";" (List.map op_name ops)))
    QCheck.Gen.(pair (list_size (1 -- 15) gen_op) (0 -- 1000000))

let prop_interleaved_noninterference =
  QCheck.Test.make
    ~name:"concurrent streams cannot influence each other (any seed)"
    ~count:60 arb_interleaved_case (fun (program, seed) ->
      let m1, a1 = interleaved_run ~seed ~secret:(secret_marker ^ "1") program in
      let m2, _ = interleaved_run ~seed ~secret:(secret_marker ^ "2") program in
      let m3, _ =
        interleaved_run ~seed:(seed + 1) ~secret:(secret_marker ^ "1") program
      in
      (* mallory's view is invariant under alice's secret... *)
      m1 = m2
      (* ...and under the interleaving itself *)
      && m1 = m3
      (* ...and never contains the secret *)
      && (not (contains m1 secret_marker))
      (* non-vacuity: alice's own concurrent stream does see her data *)
      && contains a1 secret_marker)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_interleaved_noninterference ]
