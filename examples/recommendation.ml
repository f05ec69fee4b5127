(* The §2 "Examples" trio over one synthetic society:

   - the daily top-5 recommendation engine over friends' private data,
   - online dating with a user-supplied compatibility metric,
   - the chameleon profile that hides fields from chosen viewers.

     dune exec examples/recommendation.exe
*)

open W5_http
open W5_platform
open W5_workload

let step fmt = Printf.ksprintf (fun s -> Printf.printf "  - %s\n" s) fmt

let () =
  print_endline "=== building a small society (seeded, reproducible) ===";
  let society =
    Populate.build ~seed:11 ~users:8 ~friends_per_user:3 ~photos_per_user:2
      ~blog_posts_per_user:2 ()
  in
  let platform = society.Populate.platform in
  step "%d users, friend graph wired, %d requests served during seeding"
    (List.length society.Populate.users)
    (Platform.requests_served platform);
  let dev = W5_difc.Principal.make W5_difc.Principal.Developer "core" in
  let ok = function Ok _ -> () | Error e -> failwith e in
  ok (W5_apps.Recommend_app.publish platform ~dev);
  ok (W5_apps.Dating_app.publish platform ~dev);
  ok (W5_apps.Chameleon_app.publish platform ~dev);
  let everyone = society.Populate.users in
  List.iter
    (fun user ->
      List.iter
        (fun app ->
          (match Platform.enable_app platform ~user ~app with
          | Ok () -> ()
          | Error e -> failwith e);
          let account = Platform.account_exn platform user in
          Policy.delegate_write account.Account.policy app)
        [ "core/recommend"; "core/dating"; "core/chameleon" ])
    everyone;

  print_endline "\n=== the daily digest (recommendation engine) ===";
  let u0 = List.hd everyone in
  let c = Populate.login society u0 in
  let r = Client.get c "/app/core/recommend" ~params:[ ("k", "5") ] in
  step "%s's top-5 digest: HTTP %d" u0 (Response.status_code r.Response.status);
  step "(the engine read every friend's private items; each friend's";
  step " declassifier independently approved the export to %s)" u0;

  print_endline "\n=== dating with a custom metric ===";
  (* participants publish interests and a dating-circle declassifier *)
  let daters = List.filteri (fun i _ -> i < 4) everyone in
  List.iter
    (fun user ->
      let c = Populate.login society user in
      ignore
        (Client.post c "/app/core/social"
           ~form:
             [
               ("action", "set_profile");
               ("field", "interests");
               ( "value",
                 if user = List.nth daters 1 then "scifi,jazz"
                 else if user = List.nth daters 2 then "jazz"
                 else "opera" );
             ]);
      let account = Platform.account_exn platform user in
      ignore
        (Declassifier.install_and_authorize platform ~account ~name:"daters"
           (Declassifier.group ~members:daters)))
    daters;
  let seeker = List.hd daters in
  let c = Populate.login society seeker in
  ignore
    (Client.post c "/app/core/dating"
       ~form:[ ("action", "set_metric"); ("metric", "scifi:5,jazz:2") ]);
  let r = Client.get c "/app/core/dating" ~params:[ ("action", "match"); ("k", "3") ] in
  step "%s uploads metric scifi:5,jazz:2 and asks for matches: HTTP %d" seeker
    (Response.status_code r.Response.status);
  print_endline (r.Response.body);

  print_endline "\n=== the chameleon profile ===";
  let owner = List.nth everyone 1 and pal = List.nth everyone 2
  and crush = List.nth everyone 3 in
  let c = Populate.login society owner in
  ignore
    (Client.post c "/app/core/social"
       ~form:[ ("action", "set_profile"); ("field", "books"); ("value", "scifi-novels") ]);
  ignore
    (Client.post c "/app/core/chameleon"
       ~form:[ ("action", "hide"); ("field", "books"); ("from", crush) ]);
  let account = Platform.account_exn platform owner in
  ignore
    (Declassifier.install_and_authorize platform ~account ~name:"public"
       Declassifier.everyone);
  let view who =
    let c = Populate.login society who in
    let r = Client.get c "/app/core/chameleon" ~params:[ ("user", owner) ] in
    Page.shows r "scifi-novels"
  in
  step "%s hides 'books' from %s; %s sees books: %b; %s sees books: %b" owner
    crush pal (view pal) crush (view crush);

  (* the digest "sent by e-mail" (Â§2): the mailer takes the same
     perimeter path a browser does *)
  print_endline "\n=== the daily e-mail batch ===";
  let stats =
    Mailer.run_digests platform ~app:"core/recommend" ~query:[ ("k", "5") ]
      ~subject:"your daily digest" ()
  in
  step "digests: %d delivered, %d refused by declassifiers, %d skipped"
    stats.Mailer.delivered stats.Mailer.refused stats.Mailer.skipped;
  step "%s's mailbox now holds %d message(s)" u0
    (Mailer.outbox_size platform ~user:u0);
  print_endline "\nrecommendation: done"
