(* A day in the life of a W5 provider (§2 "Providers", §3.5):

   - boot, absorb a request trace (including attacks),
   - read the operations report (data-free),
   - throttle an abusive client,
   - checkpoint the disk, lose everything, restore.

     dune exec examples/provider_ops.exe
*)

open W5_http
open W5_platform
open W5_workload

let step fmt = Printf.ksprintf (fun s -> Printf.printf "  - %s\n" s) fmt

let () =
  print_endline "=== boot + traffic ===";
  let society =
    Populate.build ~seed:31 ~users:10 ~friends_per_user:3 ~photos_per_user:2
      ~blog_posts_per_user:1 ()
  in
  let platform = society.Populate.platform in
  let mal = W5_difc.Principal.make W5_difc.Principal.Developer "mal" in
  ignore (W5_apps.Malicious.publish_all platform ~dev:mal);
  List.iter
    (fun user ->
      match Platform.enable_app platform ~user ~app:"mal/thief" with
      | Ok () -> ()
      | Error e -> failwith e)
    society.Populate.users;
  let rng = Rng.create ~seed:32 in
  let actions = Trace.generate rng ~society ~mix:Trace.read_heavy ~length:300 in
  let outcome = Trace.replay society actions in
  step "replayed %d actions: %d ok, %d refused" outcome.Trace.total
    outcome.Trace.ok outcome.Trace.forbidden;
  (* some thievery on top *)
  let mallory = Client.make ~name:"mallory" (Gateway.handler platform) in
  List.iter
    (fun target ->
      ignore (Client.get mallory "/app/mal/thief" ~params:[ ("target", target) ]))
    (List.filteri (fun i _ -> i < 4) society.Populate.users);
  step "an anonymous client probed mal/thief against 4 users";

  print_endline "\n=== the operations report ===";
  let report = Admin.collect platform in
  print_string (Admin.render report);
  (match Admin.suspicious_apps report with
  | [] -> step "no suspicious apps (threshold 3 denials)"
  | apps -> step "suspicious: %s -> hand to the editors" (String.concat ", " apps));

  print_endline "\n=== throttling the abusive client ===";
  Platform.set_rate_limit platform
    (Some (Rate_limit.create ~capacity:3 ~refill_per_tick:0 ()));
  let flood =
    List.init 6 (fun _ ->
        Response.status_code
          (Client.get mallory "/app/mal/thief"
             ~params:[ ("target", List.hd society.Populate.users) ])
            .Response.status)
  in
  step "next 6 probes: %s"
    (String.concat " " (List.map string_of_int flood));
  Platform.set_rate_limit platform None;

  print_endline "\n=== durability: checkpoint, disaster, restore ===";
  let fs = W5_os.Kernel.fs (Platform.kernel platform) in
  let image = W5_os.Fs.snapshot fs in
  step "checkpoint taken: %d bytes for %d filesystem nodes"
    (String.length image) (W5_os.Fs.total_files fs);
  (* disaster: an operator fat-fingers the user tree *)
  let victim = List.hd society.Populate.users in
  (match W5_os.Fs.write fs ("/users/" ^ victim ^ "/profile") ~data:"CORRUPTED" with
  | Ok () -> step "disaster: %s's profile corrupted on disk" victim
  | Error _ -> ());
  (match W5_os.Fs.restore_into fs image with
  | Ok () -> step "restore: disk image reloaded"
  | Error e -> failwith (W5_os.Os_error.to_string e));
  let client = Populate.login society victim in
  let r = Client.get client "/app/core/social" ~params:[ ("user", victim) ] in
  step "%s's profile after restore: HTTP %d, intact %b" victim
    (Response.status_code r.Response.status)
    (not (Page.shows r "CORRUPTED"));
  print_endline "\nprovider_ops: done"
