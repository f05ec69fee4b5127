open W5_difc
open W5_os
open W5_store

type logic =
  Kernel.ctx -> owner:string -> viewer:string option -> data:string ->
  string option

let gate_name ~owner ~name = "declass/" ^ owner ^ "/" ^ name

(* Wire format between the perimeter and a gate: a Record with
   [viewer] (empty string = anonymous) and [data]. *)
let encode_arg ~viewer ~data =
  Record.encode
    (Record.of_fields
       [ ("viewer", Option.value viewer ~default:""); ("data", data) ])

let decode_arg arg =
  match Record.decode arg with
  | Error _ -> None
  | Ok r ->
      let viewer =
        match Record.get_or r "viewer" ~default:"" with
        | "" -> None
        | v -> Some v
      in
      Some (viewer, Record.get_or r "data" ~default:"")

let owner_secrecy_tags (account : Account.t) =
  account.Account.secret_tag
  :: (match account.Account.read_tag with Some rt -> [ rt ] | None -> [])

let install platform ~account ~name logic =
  let owner = account.Account.user in
  let gate = gate_name ~owner ~name in
  (* The gate's whole privilege: declassify the owner's tags, absorb
     the owner's read-protected data. Nothing else. *)
  let caps =
    List.fold_left
      (fun caps tag ->
        Capability.Set.add
          (Capability.make tag Capability.Minus)
          (Capability.Set.add (Capability.make tag Capability.Plus) caps))
      Capability.Set.empty
      (owner_secrecy_tags account)
  in
  let entry ctx arg =
    match decode_arg arg with
    | None -> ()
    | Some (viewer, data) -> (
        match logic ctx ~owner ~viewer ~data with
        | None -> () (* refusal: no response at all *)
        | Some out ->
            List.iter
              (fun tag ->
                ignore (Syscall.declassify_self ctx ~context:gate tag))
              (owner_secrecy_tags account);
            ignore (Syscall.respond ctx out))
  in
  Kernel.register_gate (Platform.kernel platform) ~name:gate
    ~owner:account.Account.principal ~caps ~entry;
  gate

let install_and_authorize platform ~account ~name logic =
  let gate = install platform ~account ~name logic in
  List.iter
    (fun tag ->
      Policy.authorize_declassifier account.Account.policy ~tag ~gate)
    (owner_secrecy_tags account);
  gate

let everyone _ctx ~owner:_ ~viewer:_ ~data = Some data
let nobody _ctx ~owner:_ ~viewer:_ ~data:_ = None

let owner_only _ctx ~owner ~viewer ~data =
  match viewer with Some v when v = owner -> Some data | Some _ | None -> None

let friends_only ctx ~owner ~viewer ~data =
  match viewer with
  | None -> None
  | Some v when v = owner -> Some data
  | Some v -> (
      match
        Syscall.read_file_taint ctx ("/users/" ^ owner ^ "/friends")
      with
      | Error _ -> None
      | Ok raw -> (
          match Record.decode raw with
          | Error _ -> None
          | Ok r -> if List.mem v (Record.get_list r "friends") then Some data else None))

let group ~members _ctx ~owner:_ ~viewer ~data =
  match viewer with
  | Some v when List.mem v members -> Some data
  | Some _ | None -> None

let watermarked ~stamp inner ctx ~owner ~viewer ~data =
  Option.map (fun out -> out ^ stamp) (inner ctx ~owner ~viewer ~data)

(* ---- marked-span transformations ---- *)

let secret_open = "<span class=\"w5-secret\">"
let secret_close = "</span><!--/w5-secret-->"
let secret_span content = secret_open ^ content ^ secret_close

(* [needle] sits at [haystack.[i]], compared in place. *)
let rec matches_at haystack i needle k =
  k = String.length needle
  || (haystack.[i + k] = needle.[k] && matches_at haystack i needle (k + 1))

let find_sub haystack needle from =
  let hn = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > hn then None
    else if matches_at haystack i needle 0 then Some i
    else scan (i + 1)
  in
  scan from

let contains_secret_span data = find_sub data secret_open 0 <> None

let redact_spans ?(replacement = "\xe2\x96\x88\xe2\x96\x88\xe2\x96\x88") data =
  let buf = Buffer.create (String.length data) in
  let rec go pos =
    match find_sub data secret_open pos with
    | None -> Buffer.add_substring buf data pos (String.length data - pos)
    | Some start -> (
        Buffer.add_substring buf data pos (start - pos);
        Buffer.add_string buf replacement;
        match find_sub data secret_close (start + String.length secret_open) with
        | None -> () (* unterminated: drop the tail *)
        | Some close -> go (close + String.length secret_close))
  in
  go 0;
  Buffer.contents buf

let redacting ?replacement inner ctx ~owner ~viewer ~data =
  Option.map (redact_spans ?replacement) (inner ctx ~owner ~viewer ~data)

let require_no_secrets inner ctx ~owner ~viewer ~data =
  match inner ctx ~owner ~viewer ~data with
  | Some out when not (contains_secret_span out) -> Some out
  | Some _ | None -> None
