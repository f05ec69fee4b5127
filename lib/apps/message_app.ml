open W5_difc
open W5_os
open W5_store
open W5_http
open W5_platform

let app_name = "messages"
let inbox_collection user = "inbox-" ^ user

let secrecy_of_user ctx user =
  match Syscall.stat ctx (App_util.user_dir user) with
  | Ok st -> Some st.Fs.labels.Flow.secrecy
  | Error _ -> None

let send ctx env ~sender ~recipient ~body =
  ignore env;
  match (secrecy_of_user ctx sender, secrecy_of_user ctx recipient) with
  | None, _ -> App_util.respond_error ctx ("no such user: " ^ sender)
  | _, None -> App_util.respond_error ctx ("no such user: " ^ recipient)
  | Some s_sender, Some s_recipient -> (
      let collection = inbox_collection recipient in
      (match
         Obj_store.create_collection ctx collection ~labels:Flow.bottom
       with
      | Ok () | Error (Os_error.Already_exists _) -> ()
      | Error _ -> ());
      let labels =
        Flow.make ~secrecy:(Label.union s_sender s_recipient) ()
      in
      let id =
        Printf.sprintf "m-%d-%d" (Syscall.pid ctx)
          (Syscall.usage ctx W5_os.Resource.Cpu)
      in
      let record =
        Record.of_fields [ ("from", sender); ("to", recipient); ("body", body) ]
      in
      match Obj_store.put ctx ~collection ~id ~labels record with
      | Error e -> App_util.respond_error ctx (Os_error.to_string e)
      | Ok () ->
          App_util.respond_page ctx ~title:"sent"
            (Html.text ("message delivered to " ^ recipient)))

let render_messages ctx ~title messages =
  let lines =
    List.map
      (fun (_, r) ->
        Printf.sprintf "%s: %s"
          (Record.get_or r "from" ~default:"?")
          (Record.get_or r "body" ~default:""))
      messages
  in
  App_util.respond_page ctx ~title (Html.ul (List.map Html.text lines))

let inbox ctx ~viewer ~sender_filter =
  let collection = inbox_collection viewer in
  let where =
    match sender_filter with
    | None -> Query.always
    | Some sender -> Query.field_equals "from" sender
  in
  match Query.select ctx ~collection ~where with
  | Error (Os_error.Not_found _) ->
      App_util.respond_page ctx ~title:"inbox" (Html.text "no messages")
  | Error e -> App_util.respond_error ctx (Os_error.to_string e)
  | Ok messages -> render_messages ctx ~title:(viewer ^ "'s inbox") messages

let handler ctx (env : App_registry.env) =
  let request = env.App_registry.request in
  match App_util.viewer_or_respond ctx env with
  | None -> ()
  | Some viewer -> (
      match Request.param_or request "action" ~default:"inbox" with
      | "send" -> (
          match (Request.param request "to", Request.param request "body") with
          | Some recipient, Some body ->
              send ctx env ~sender:viewer ~recipient ~body
          | _ -> App_util.respond_error ctx "to and body required")
      | "inbox" -> inbox ctx ~viewer ~sender_filter:None
      | "from" -> (
          match Request.param request "sender" with
          | Some sender -> inbox ctx ~viewer ~sender_filter:(Some sender)
          | None -> App_util.respond_error ctx "sender required")
      | other -> App_util.respond_error ctx ("unknown action: " ^ other))

let publish platform ~dev =
  App_registry.publish
    (Platform.registry platform)
    ~dev ~name:app_name ~version:"1.0"
    ~source:
      (App_registry.Open_source
         "message_app.ml: doubly-labeled messages in the object store, \
          listed via the taint-joining query engine")
    handler
