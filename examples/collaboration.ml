(* The collaboration tour: groups, private messages, calendars and
   polls — four apps, four different shapes of "who may learn what",
   all built from the same tags, capabilities and declassifiers.

     dune exec examples/collaboration.exe
*)

open W5_http
open W5_platform

let step fmt = Printf.ksprintf (fun s -> Printf.printf "  - %s\n" s) fmt

let () =
  let platform = Platform.create () in
  let dev = W5_difc.Principal.make W5_difc.Principal.Developer "core" in
  let ok_s = function Ok v -> v | Error e -> failwith e in
  let ok_os = function
    | Ok v -> v
    | Error e -> failwith (W5_os.Os_error.to_string e)
  in
  ignore (ok_s (W5_apps.Message_app.publish platform ~dev));
  ignore (ok_s (W5_apps.Calendar_app.publish platform ~dev));
  ignore (ok_s (W5_apps.Poll_app.publish platform ~dev));
  let users = [ "ana"; "ben"; "cal"; "dee" ] in
  List.iter
    (fun user ->
      let account = ok_s (Platform.signup platform ~user ~password:"pw") in
      List.iter
        (fun app ->
          (match Platform.enable_app platform ~user ~app with
          | Ok () -> ()
          | Error e -> failwith e);
          Policy.delegate_write account.Account.policy app)
        [ "core/messages"; "core/calendar"; "core/polls" ])
    users;
  let login user =
    let c = Client.make ~name:user (Gateway.handler platform) in
    ignore (Client.post c "/login" ~form:[ ("user", user); ("pass", "pw") ]);
    c
  in

  print_endline "=== a group: circle-owned data ===";
  let ana = Platform.account_exn platform "ana" in
  let group = ok_s (Group.create platform ~founder:ana ~name:"expedition") in
  List.iter (fun u -> ignore (ok_s (Group.add_member platform group ~user:u)))
    [ "ben"; "cal" ];
  ignore
    (ok_os (Group.post platform group ~author:ana ~id:"r1" ~body:"route: west ridge"));
  step "ana founds 'expedition' (ben, cal join) and posts the route";
  let read who =
    let account = Platform.account_exn platform who in
    match Group.read_posts platform group ~reader:account with
    | Ok posts -> Printf.sprintf "%d post(s)" (List.length posts)
    | Error _ -> "denied (cannot even read)"
  in
  step "ben reads: %s; dee reads: %s" (read "ben") (read "dee");

  print_endline "\n=== private messages over the labeled store ===";
  let benc = login "ben" in
  ignore
    (Client.post benc "/app/core/messages"
       ~form:[ ("action", "send"); ("to", "ana"); ("body", "ropes packed") ]);
  ignore
    (Declassifier.install_and_authorize platform
       ~account:(Platform.account_exn platform "ben")
       ~name:"mail"
       (Declassifier.group ~members:[ "ana" ]));
  let anac = login "ana" in
  let r = Client.get anac "/app/core/messages" ~params:[ ("action", "inbox") ] in
  step "ben messages ana; ana's inbox: HTTP %d (%s)"
    (Response.status_code r.Response.status)
    (if Page.shows r "ropes packed" then "message readable" else "hidden");

  print_endline "\n=== calendar: busy to friends, details to no one ===";
  ignore
    (Client.post anac "/app/core/calendar"
       ~form:
         [ ("action", "add"); ("id", "summit"); ("title", "SECRET summit bid");
           ("day", "5"); ("start", "4"); ("len", "8") ]);
  ignore
    (ok_os
       (Platform.write_user_record platform ana ~file:"friends"
          (W5_store.Record.of_fields [ ("friends", "ben") ])));
  ignore
    (Declassifier.install_and_authorize platform ~account:ana ~name:"busyfree"
       (Declassifier.redacting Declassifier.friends_only));
  let r =
    Client.get benc "/app/core/calendar" ~params:[ ("action", "week"); ("user", "ana") ]
  in
  step "ben sees ana's saturday: HTTP %d, slot visible %b, title hidden %b"
    (Response.status_code r.Response.status)
    (Page.shows r "04:00-12:00")
    (not (Page.shows r "SECRET summit bid"));

  print_endline "\n=== polls: tallies out, ballots never ===";
  List.iter
    (fun (user, choice) ->
      let account = Platform.account_exn platform user in
      ignore
        (Declassifier.install_and_authorize platform ~account ~name:"agg"
           (Declassifier.require_no_secrets Declassifier.everyone));
      let c = login user in
      ignore
        (Client.post c "/app/core/polls"
           ~form:[ ("action", "vote"); ("poll", "summit-day"); ("choice", choice) ]))
    [ ("ana", "saturday"); ("ben", "saturday"); ("cal", "sunday") ];
  let deec = login "dee" in
  let r = Client.get deec "/app/core/polls" ~params:[ ("action", "tally"); ("poll", "summit-day") ] in
  step "dee (not even a voter) reads the tally: HTTP %d" (Response.status_code r.Response.status);
  let r = Client.get deec "/app/core/polls" ~params:[ ("action", "ballots"); ("poll", "summit-day") ] in
  step "dee asks for raw ballots: HTTP %d (vetoed by the voters' rule)"
    (Response.status_code r.Response.status);
  print_endline "\ncollaboration: done"
