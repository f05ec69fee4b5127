open W5_os
open W5_store
open W5_http
open W5_platform

let app_name = "blog"
let blog_dir user = App_util.user_file user "blog"
let entry_path user id = blog_dir user ^ "/" ^ id
let comments_collection ~author ~entry = "comments-" ^ author ^ "-" ^ entry

let post ctx env ~viewer ~id ~title ~body =
  if not (App_util.endorse_write ctx env ~user:viewer) then
    App_util.respond_error ctx "write not delegated to this app"
  else
    match App_util.user_data_labels ctx ~user:viewer with
    | None -> App_util.respond_error ctx "cannot determine labels"
    | Some labels -> (
        (match Syscall.mkdir ctx (blog_dir viewer) ~labels with
        | Ok () | Error (Os_error.Already_exists _) -> ()
        | Error e -> App_util.respond_error ctx (Os_error.to_string e));
        let entry =
          Record.of_fields
            [ ("title", title); ("body", body); ("author", viewer) ]
        in
        let path = entry_path viewer id in
        let data = Record.encode entry in
        let result =
          if Syscall.file_exists ctx path then
            Syscall.write_file ctx path ~data
          else Syscall.create_file ctx path ~labels ~data
        in
        match result with
        | Error e -> App_util.respond_error ctx (Os_error.to_string e)
        | Ok () ->
            App_util.respond_page ctx ~title:"posted"
              (Html.text ("published " ^ id)))

let render_comments ctx ~user ~id =
  match
    Query.select ctx
      ~collection:(comments_collection ~author:user ~entry:id)
      ~where:Query.always
  with
  | Error _ -> ""
  | Ok comments ->
      Html.element "aside"
        (Html.ul
           (List.map
              (fun (_, c) ->
                Html.element "b" (Html.text (Record.get_or c "from" ~default:"?"))
                ^ ": "
                ^ Html.text (Record.get_or c "text" ~default:""))
              comments))

let render_entry ctx ~user ~id =
  match Syscall.read_file_taint ctx (entry_path user id) with
  | Error _ -> None
  | Ok data -> (
      match Record.decode data with
      | Error _ -> None
      | Ok r ->
          Some
            (Html.element "article"
               (Html.element "h2" (Html.text (Record.get_or r "title" ~default:id))
               ^ Html.element "p" (Html.text (Record.get_or r "body" ~default:""))
               ^ render_comments ctx ~user ~id)))

let comment ctx ~viewer ~author ~entry ~text =
  if not (Syscall.file_exists ctx (entry_path author entry)) then
    App_util.respond_error ctx "no such entry"
  else
    match Syscall.stat ctx (App_util.user_dir viewer) with
    | Error e -> App_util.respond_error ctx (Os_error.to_string e)
    | Ok st -> (
        let labels =
          W5_difc.Flow.make ~secrecy:st.Fs.labels.W5_difc.Flow.secrecy ()
        in
        let collection = comments_collection ~author ~entry in
        (match Obj_store.create_collection ctx collection ~labels:W5_difc.Flow.bottom with
        | Ok () | Error (Os_error.Already_exists _) -> ()
        | Error _ -> ());
        let id =
          Printf.sprintf "c-%d-%d" (Syscall.pid ctx)
            (Syscall.usage ctx W5_os.Resource.Cpu)
        in
        match
          Obj_store.put ctx ~collection ~id ~labels
            (Record.of_fields [ ("from", viewer); ("text", text) ])
        with
        | Error e -> App_util.respond_error ctx (Os_error.to_string e)
        | Ok () ->
            App_util.respond_page ctx ~title:"comment"
              (Html.text "comment posted"))

let read ctx ~user ~id =
  match id with
  | Some id -> (
      match render_entry ctx ~user ~id with
      | Some html -> App_util.respond_page ctx ~title:(user ^ "/" ^ id) html
      | None -> App_util.respond_error ctx ("no such entry: " ^ id))
  | None ->
      let ids = App_util.list_user_files ctx ~user ~sub:"blog" in
      let entries = List.filter_map (fun id -> render_entry ctx ~user ~id) ids in
      App_util.respond_page ctx
        ~title:(user ^ "'s blog")
        (String.concat "" entries)

let handler ctx (env : App_registry.env) =
  let request = env.App_registry.request in
  match Request.param_or request "action" ~default:"read" with
  | "post" -> (
      match App_util.viewer_or_respond ctx env with
      | None -> ()
      | Some viewer -> (
          match
            ( Request.param request "id",
              Request.param request "title",
              Request.param request "body" )
          with
          | Some id, Some title, Some body -> post ctx env ~viewer ~id ~title ~body
          | _ -> App_util.respond_error ctx "id, title and body required"))
  | "comment" -> (
      match App_util.viewer_or_respond ctx env with
      | None -> ()
      | Some viewer -> (
          match
            ( Request.param request "user",
              Request.param request "id",
              Request.param request "text" )
          with
          | Some author, Some entry, Some text ->
              comment ctx ~viewer ~author ~entry ~text
          | _ -> App_util.respond_error ctx "user, id and text required"))
  | "read" -> (
      match (Request.param request "user", env.App_registry.viewer) with
      | Some user, _ | None, Some user ->
          read ctx ~user ~id:(Request.param request "id")
      | None, None -> App_util.respond_error ctx "user required")
  | other -> App_util.respond_error ctx ("unknown action: " ^ other)

let publish platform ~dev =
  App_registry.publish
    (Platform.registry platform)
    ~dev ~name:app_name ~version:"1.0"
    ~source:
      (App_registry.Open_source
         "blog_app.ml: record-format entries under the user's own labels")
    handler
