open W5_difc
open W5_os
open W5_store
open W5_http
open W5_platform

let app_name = "polls"
let collection poll = "poll-" ^ poll

let vote ctx ~viewer ~poll ~choice =
  match Syscall.stat ctx (App_util.user_dir viewer) with
  | Error e -> App_util.respond_error ctx (Os_error.to_string e)
  | Ok st -> (
      let labels = Flow.make ~secrecy:st.Fs.labels.Flow.secrecy () in
      (match
         Obj_store.create_collection ctx (collection poll) ~labels:Flow.bottom
       with
      | Ok () | Error (Os_error.Already_exists _) -> ()
      | Error _ -> ());
      let ballot = Record.of_fields [ ("voter", viewer); ("choice", choice) ] in
      match
        Obj_store.put ctx ~collection:(collection poll) ~id:viewer ~labels ballot
      with
      | Error e -> App_util.respond_error ctx (Os_error.to_string e)
      | Ok () ->
          App_util.respond_page ctx ~title:"voted"
            (Html.text ("vote recorded in " ^ poll)))

let ballots_of ctx ~poll =
  Query.select ctx ~collection:(collection poll) ~where:Query.always

let tally ctx ~poll =
  match ballots_of ctx ~poll with
  | Error (Os_error.Not_found _) ->
      App_util.respond_page ctx ~title:"tally" (Html.text "no votes yet")
  | Error e -> App_util.respond_error ctx (Os_error.to_string e)
  | Ok ballots ->
      let counts = Hashtbl.create 8 in
      List.iter
        (fun (_, r) ->
          let choice = Record.get_or r "choice" ~default:"?" in
          Hashtbl.replace counts choice
            (1 + Option.value (Hashtbl.find_opt counts choice) ~default:0))
        ballots;
      let lines =
        Hashtbl.fold (fun choice n acc -> (choice, n) :: acc) counts []
        |> List.sort compare
        |> List.map (fun (choice, n) -> Printf.sprintf "%s: %d" choice n)
      in
      (* aggregates only: nothing here is marked sensitive *)
      App_util.respond_page ctx ~title:("tally: " ^ poll)
        (Html.ul (List.map Html.text lines))

let ballots_view ctx ~poll =
  match ballots_of ctx ~poll with
  | Error e -> App_util.respond_error ctx (Os_error.to_string e)
  | Ok ballots ->
      let lines =
        List.map
          (fun (_, r) ->
            (* each raw ballot is a sensitive span: voters' no-secrets
               declassifiers veto any page carrying one *)
            Declassifier.secret_span
              (Html.text
                 (Printf.sprintf "%s voted %s"
                    (Record.get_or r "voter" ~default:"?")
                    (Record.get_or r "choice" ~default:"?"))))
          ballots
      in
      App_util.respond_page ctx ~title:("ballots: " ^ poll) (Html.ul lines)

let handler ctx (env : App_registry.env) =
  let request = env.App_registry.request in
  match Request.param_or request "action" ~default:"tally" with
  | "vote" -> (
      match App_util.viewer_or_respond ctx env with
      | None -> ()
      | Some viewer -> (
          match (Request.param request "poll", Request.param request "choice")
          with
          | Some poll, Some choice -> vote ctx ~viewer ~poll ~choice
          | _ -> App_util.respond_error ctx "poll and choice required"))
  | "tally" -> (
      match Request.param request "poll" with
      | Some poll -> tally ctx ~poll
      | None -> App_util.respond_error ctx "poll required")
  | "ballots" -> (
      match Request.param request "poll" with
      | Some poll -> ballots_view ctx ~poll
      | None -> App_util.respond_error ctx "poll required")
  | other -> App_util.respond_error ctx ("unknown action: " ^ other)

let publish platform ~dev =
  App_registry.publish
    (Platform.registry platform)
    ~dev ~name:app_name ~version:"1.0"
    ~source:
      (App_registry.Open_source
         "poll_app.ml: ballots labeled per voter; tallies aggregate \
          freely; raw ballots are sensitive spans vetoed by \
          no-secrets declassifiers")
    handler
