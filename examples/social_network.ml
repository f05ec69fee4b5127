(* The paper's running example (§3.1) as a full scenario: Bob's
   profile goes to Alice (his friend), not to Charlie, not to the
   application's own author — enforced, not promised.

     dune exec examples/social_network.exe
*)

open W5_difc
open W5_http
open W5_platform

let step fmt = Printf.ksprintf (fun s -> Printf.printf "  - %s\n" s) fmt

let show name (r : Response.t) =
  step "%s -> HTTP %d%s" name
    (Response.status_code r.Response.status)
    (if Response.status_code r.Response.status = 403 then
       " (" ^ r.Response.body ^ ")"
     else "")

let () =
  print_endline "=== W5 social network walkthrough ===";
  let platform = Platform.create () in
  let dev = Principal.make Principal.Developer "sdev" in
  (match W5_apps.Social_app.publish platform ~dev with
  | Ok _ -> ()
  | Error e -> failwith e);
  step "developer 'sdev' uploads the social app (open source, auditable)";

  let signup name =
    match Platform.signup platform ~user:name ~password:"pw" with
    | Ok account ->
        (match Platform.enable_app platform ~user:name ~app:"sdev/social" with
        | Ok () -> ()
        | Error e -> failwith e);
        Policy.delegate_write account.Account.policy "sdev/social";
        account
    | Error e -> failwith e
  in
  let bob = signup "bob" in
  ignore (signup "alice");
  ignore (signup "charlie");
  step "bob, alice and charlie sign up; each enables the app with one click";

  let login name =
    let c = Client.make ~name (Gateway.handler platform) in
    ignore (Client.post c "/login" ~form:[ ("user", name); ("pass", "pw") ]);
    c
  in
  let bob_browser = login "bob" in
  ignore
    (Client.post bob_browser "/app/sdev/social"
       ~form:
         [ ("action", "set_profile"); ("field", "quote"); ("value", "My private quote") ]);
  ignore
    (Client.post bob_browser "/app/sdev/social"
       ~form:[ ("action", "add_friend"); ("friend", "alice") ]);
  step "bob fills his profile and befriends alice";

  print_endline "\n-- before bob authorizes any declassifier --";
  show "bob views bob" (Client.get bob_browser "/app/sdev/social" ~params:[ ("user", "bob") ]);
  let alice_browser = login "alice" in
  show "alice views bob"
    (Client.get alice_browser "/app/sdev/social" ~params:[ ("user", "bob") ]);
  step "(even friends are blocked: the boilerplate policy exports only to bob)";

  print_endline "\n-- bob authorizes the friends-only declassifier --";
  let gate =
    Declassifier.install_and_authorize platform ~account:bob ~name:"friends"
      Declassifier.friends_only
  in
  step "bob points his export rule at gate %S (small, auditable, reusable)" gate;
  let r = Client.get alice_browser "/app/sdev/social" ~params:[ ("user", "bob") ] in
  show "alice views bob" r;
  Printf.printf "    alice sees: %b (the private quote crossed the perimeter for her)\n"
    (Page.shows r "My private quote");
  let charlie_browser = login "charlie" in
  show "charlie views bob"
    (Client.get charlie_browser "/app/sdev/social" ~params:[ ("user", "bob") ]);
  let anon = Client.make (Gateway.handler platform) in
  show "anonymous views bob"
    (Client.get anon "/app/sdev/social" ~params:[ ("user", "bob") ]);

  print_endline "\n-- the audit trail (data-free) --";
  let denials = W5_os.Audit.denials (W5_os.Kernel.audit (Platform.kernel platform)) in
  List.iter
    (fun e -> Format.printf "  %a@." W5_os.Audit.pp_entry e)
    (List.filteri (fun i _ -> i < 5) denials);
  print_endline "\nsocial_network: done"
