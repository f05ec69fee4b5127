open W5_difc

type node_kind =
  | Regular
  | Directory

type node =
  | File of file
  | Dir of dir

and file = {
  mutable data : string;
  mutable f_labels : Flow.labels;
  mutable f_version : int;
}

and dir = {
  entries : (string, node) Hashtbl.t;
  mutable d_labels : Flow.labels;
  mutable d_version : int;
}

type t = {
  root : dir;
  mutable file_count : int;
  mutable generation : int;
}

type stat = {
  kind : node_kind;
  labels : Flow.labels;
  size : int;
  version : int;
}

let create ?(root_labels = Flow.bottom) () =
  {
    root = { entries = Hashtbl.create 64; d_labels = root_labels; d_version = 0 };
    file_count = 0;
    generation = 0;
  }

(* Path handling: "/a/b/c" -> ["a"; "b"; "c"]; empty components are
   dropped so "//a///b" normalizes like "/a/b". *)
let split_path path =
  List.filter (fun c -> c <> "" && c <> ".") (String.split_on_char '/' path)

let dirname path =
  match List.rev (split_path path) with
  | [] | [ _ ] -> "/"
  | _ :: rev_dirs -> "/" ^ String.concat "/" (List.rev rev_dirs)

let basename path =
  match List.rev (split_path path) with
  | [] -> "/"
  | last :: _ -> last

let join_path a b =
  if b = "" then a
  else if a = "" || a = "/" then "/" ^ String.concat "/" (split_path b)
  else a ^ "/" ^ String.concat "/" (split_path b)

let rec lookup_dir dir = function
  | [] -> Ok dir
  | comp :: rest -> (
      match Hashtbl.find_opt dir.entries comp with
      | None -> Error `Missing
      | Some (File _) -> Error `Not_dir
      | Some (Dir d) -> lookup_dir d rest)

let lookup fs path =
  match List.rev (split_path path) with
  | [] -> Ok (Dir fs.root)
  | last :: rdirs -> (
      match lookup_dir fs.root (List.rev rdirs) with
      | Error _ as e -> e
      | Ok dir -> (
          match Hashtbl.find_opt dir.entries last with
          | None -> Error `Missing
          | Some node -> Ok node))

let lookup_parent fs path =
  match List.rev (split_path path) with
  | [] -> Error `Missing (* the root has no parent entry *)
  | last :: rdirs ->
      Result.map (fun d -> (d, last)) (lookup_dir fs.root (List.rev rdirs))

let fs_error path = function
  | `Missing -> Os_error.Not_found path
  | `Not_dir -> Os_error.Not_a_directory path

let mkdir fs path ~labels =
  match lookup_parent fs path with
  | Error e -> Error (fs_error path e)
  | Ok (parent, name) ->
      if Hashtbl.mem parent.entries name then
        Error (Os_error.Already_exists path)
      else begin
        Hashtbl.replace parent.entries name
          (Dir { entries = Hashtbl.create 8; d_labels = labels; d_version = 0 });
        parent.d_version <- parent.d_version + 1;
        fs.file_count <- fs.file_count + 1;
        Ok ()
      end

let create_file fs path ~labels ~data =
  match lookup_parent fs path with
  | Error e -> Error (fs_error path e)
  | Ok (parent, name) ->
      if Hashtbl.mem parent.entries name then
        Error (Os_error.Already_exists path)
      else begin
        Hashtbl.replace parent.entries name
          (File { data; f_labels = labels; f_version = 1 });
        parent.d_version <- parent.d_version + 1;
        fs.file_count <- fs.file_count + 1;
        Ok ()
      end

let read fs path =
  match lookup fs path with
  | Error e -> Error (fs_error path e)
  | Ok (Dir _) -> Error (Os_error.Is_a_directory path)
  | Ok (File f) -> Ok (f.data, f.f_labels)

(* Content writes also bump the parent directory's version: a dir's
   d_version thus covers its whole set of immediate children, so an
   observer can detect any mutation under a directory from a single
   stat. *)
let bump_parent fs path =
  match lookup_parent fs path with
  | Ok (parent, _) -> parent.d_version <- parent.d_version + 1
  | Error _ -> fs.root.d_version <- fs.root.d_version + 1

let write fs path ~data =
  match lookup fs path with
  | Error e -> Error (fs_error path e)
  | Ok (Dir _) -> Error (Os_error.Is_a_directory path)
  | Ok (File f) ->
      f.data <- data;
      f.f_version <- f.f_version + 1;
      bump_parent fs path;
      Ok ()

let append fs path ~data =
  match lookup fs path with
  | Error e -> Error (fs_error path e)
  | Ok (Dir _) -> Error (Os_error.Is_a_directory path)
  | Ok (File f) ->
      f.data <- f.data ^ data;
      f.f_version <- f.f_version + 1;
      bump_parent fs path;
      Ok ()

let unlink fs path =
  match lookup_parent fs path with
  | Error e -> Error (fs_error path e)
  | Ok (parent, name) -> (
      match Hashtbl.find_opt parent.entries name with
      | None -> Error (Os_error.Not_found path)
      | Some (Dir d) when Hashtbl.length d.entries > 0 ->
          Error (Os_error.Invalid (path ^ ": directory not empty"))
      | Some (Dir _ | File _) ->
          Hashtbl.remove parent.entries name;
          parent.d_version <- parent.d_version + 1;
          fs.file_count <- fs.file_count - 1;
          Ok ())

let rename fs ~src ~dst =
  let src_comps = split_path src and dst_comps = split_path dst in
  (* no-op and subtree cases: "/a" -> "/a/b/c" would orphan the tree *)
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> x = y && is_prefix xs ys
  in
  if src_comps = [] then Error (Os_error.Invalid "cannot rename the root")
  else if is_prefix src_comps dst_comps then
    Error (Os_error.Invalid (dst ^ ": inside " ^ src))
  else
    match lookup_parent fs src with
    | Error e -> Error (fs_error src e)
    | Ok (src_parent, src_name) -> (
        match Hashtbl.find_opt src_parent.entries src_name with
        | None -> Error (Os_error.Not_found src)
        | Some node -> (
            match lookup_parent fs dst with
            | Error e -> Error (fs_error dst e)
            | Ok (dst_parent, dst_name) ->
                if Hashtbl.mem dst_parent.entries dst_name then
                  Error (Os_error.Already_exists dst)
                else begin
                  Hashtbl.remove src_parent.entries src_name;
                  Hashtbl.replace dst_parent.entries dst_name node;
                  src_parent.d_version <- src_parent.d_version + 1;
                  dst_parent.d_version <- dst_parent.d_version + 1;
                  Ok ()
                end))

let readdir fs path =
  match lookup fs path with
  | Error e -> Error (fs_error path e)
  | Ok (File _) -> Error (Os_error.Not_a_directory path)
  | Ok (Dir d) ->
      let names = Hashtbl.fold (fun name _ acc -> name :: acc) d.entries [] in
      Ok (List.sort String.compare names, d.d_labels)

let fold_children fs path ~init ~f =
  match lookup fs path with
  | Error e -> Error (fs_error path e)
  | Ok (File _) -> Error (Os_error.Not_a_directory path)
  | Ok (Dir d) ->
      Ok
        (Hashtbl.fold
           (fun _ node acc ->
             match node with
             | File file -> f acc file.f_labels
             | Dir dir -> f acc dir.d_labels)
           d.entries init)

let stat fs path =
  match lookup fs path with
  | Error e -> Error (fs_error path e)
  | Ok (File f) ->
      Ok
        {
          kind = Regular;
          labels = f.f_labels;
          size = String.length f.data;
          version = f.f_version;
        }
  | Ok (Dir d) ->
      Ok
        {
          kind = Directory;
          labels = d.d_labels;
          size = Hashtbl.length d.entries;
          version = d.d_version;
        }

let set_labels fs path ~labels =
  match lookup fs path with
  | Error e -> Error (fs_error path e)
  | Ok (File f) ->
      f.f_labels <- labels;
      f.f_version <- f.f_version + 1;
      bump_parent fs path;
      Ok ()
  | Ok (Dir d) ->
      d.d_labels <- labels;
      d.d_version <- d.d_version + 1;
      Ok ()

let exists fs path = match lookup fs path with Ok _ -> true | Error _ -> false

let parent_labels fs path =
  if split_path path = [] then Ok fs.root.d_labels
  else
    match lookup_parent fs path with
    | Error e -> Error (fs_error (dirname path) e)
    | Ok (parent, _) -> Ok parent.d_labels

let path_taint fs path =
  (* Only secrecy accumulates along a lookup: seeing that the path
     resolves reveals the ancestors' contents, but vouches nothing. *)
  let comps = split_path path in
  let rec walk dir acc = function
    | [] | [ _ ] -> Ok (Flow.make ~secrecy:acc ())
    | comp :: rest -> (
        match Hashtbl.find_opt dir.entries comp with
        | None -> Error (Os_error.Not_found path)
        | Some (File _) -> Error (Os_error.Not_a_directory path)
        | Some (Dir d) -> walk d (Label.union acc d.d_labels.Flow.secrecy) rest)
  in
  walk fs.root fs.root.d_labels.Flow.secrecy comps

let total_files fs = fs.file_count
let generation fs = fs.generation

(* ---- snapshot / restore ----
   Line-oriented image; names and file data are hex-encoded so the
   format needs no quoting rules. Labels are stored as tag-id lists.

     D <hexname> <version> <s-ids> <i-ids> <child-count>
     F <hexname> <version> <s-ids> <i-ids> <hexdata>

   id lists are comma-separated, "-" when empty. The root is a [D]
   with the pseudo-name "/". *)

let hex_encode s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "odd hex length"
  else
    let hex_val c =
      match c with
      | '0' .. '9' -> Ok (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Ok (Char.code c - Char.code 'a' + 10)
      | _ -> Error "bad hex digit"
    in
    let buf = Buffer.create (n / 2) in
    let rec go i =
      if i >= n then Ok (Buffer.contents buf)
      else
        match (hex_val s.[i], hex_val s.[i + 1]) with
        | Ok hi, Ok lo ->
            Buffer.add_char buf (Char.chr ((hi * 16) + lo));
            go (i + 2)
        | Error e, _ | _, Error e -> Error e
    in
    go 0

let encode_label label =
  match Label.to_list label with
  | [] -> "-"
  | tags -> String.concat "," (List.map (fun t -> string_of_int (Tag.id t)) tags)

let decode_label s =
  if s = "-" then Ok Label.empty
  else
    let ids = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok acc
      | id_str :: rest -> (
          match Option.bind (int_of_string_opt id_str) Tag.of_id with
          | Some tag -> go (Label.add tag acc) rest
          | None -> Error ("unknown tag id " ^ id_str))
    in
    go Label.empty ids

let snapshot fs =
  let buf = Buffer.create 4096 in
  let emit_labels (l : Flow.labels) =
    encode_label l.Flow.secrecy ^ " " ^ encode_label l.Flow.integrity
  in
  let rec emit_dir name (d : dir) =
    let children =
      Hashtbl.fold (fun child_name node acc -> (child_name, node) :: acc) d.entries []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    Buffer.add_string buf
      (Printf.sprintf "D %s %d %s %d\n" (hex_encode name) d.d_version
         (emit_labels d.d_labels) (List.length children));
    List.iter
      (fun (child_name, node) ->
        match node with
        | Dir child -> emit_dir child_name child
        | File f ->
            Buffer.add_string buf
              (Printf.sprintf "F %s %d %s %s\n" (hex_encode child_name)
                 f.f_version (emit_labels f.f_labels) (hex_encode f.data)))
      children
  in
  emit_dir "/" fs.root;
  Buffer.contents buf

let restore_into fs image =
  let lines = Array.of_list (String.split_on_char '\n' image) in
  let pos = ref 0 in
  let fail msg = Error (Os_error.Invalid ("fs image: " ^ msg)) in
  let parse_labels s_field i_field =
    match (decode_label s_field, decode_label i_field) with
    | Ok secrecy, Ok integrity -> Ok { Flow.secrecy; integrity }
    | Error e, _ | _, Error e -> Error (Os_error.Invalid ("fs image: " ^ e))
  in
  (* returns the parsed node and its (decoded) name *)
  let rec parse_entry () =
    if !pos >= Array.length lines then fail "truncated"
    else begin
      let line = lines.(!pos) in
      incr pos;
      match String.split_on_char ' ' line with
      | [ "F"; hexname; version; s_field; i_field; hexdata ] -> (
          match (hex_decode hexname, hex_decode hexdata, int_of_string_opt version) with
          | Ok name, Ok data, Some v -> (
              match parse_labels s_field i_field with
              | Error _ as e -> e
              | Ok labels ->
                  fs.file_count <- fs.file_count + 1;
                  Ok (name, File { data; f_labels = labels; f_version = v }))
          | Error e, _, _ | _, Error e, _ -> fail e
          | _, _, None -> fail "bad version")
      | [ "D"; hexname; version; s_field; i_field; count ] -> (
          match (hex_decode hexname, int_of_string_opt version, int_of_string_opt count) with
          | Ok name, Some v, Some n -> (
              match parse_labels s_field i_field with
              | Error _ as e -> e
              | Ok labels -> (
                  let entries = Hashtbl.create (max 8 n) in
                  let rec children remaining =
                    if remaining = 0 then Ok ()
                    else
                      match parse_entry () with
                      | Error _ as e -> e
                      | Ok (child_name, node) ->
                          Hashtbl.replace entries child_name node;
                          children (remaining - 1)
                  in
                  match children n with
                  | Error _ as e -> e
                  | Ok () ->
                      if name <> "/" then fs.file_count <- fs.file_count + 1;
                      Ok (name, Dir { entries; d_labels = labels; d_version = v })))
          | Error e, _, _ -> fail e
          | _, None, _ | _, _, None -> fail "bad version/count")
      | _ -> fail ("bad line: " ^ line)
    end
  in
  let saved_count = fs.file_count in
  fs.file_count <- 0;
  match parse_entry () with
  | Ok ("/", Dir d) ->
      Hashtbl.reset fs.root.entries;
      Hashtbl.iter (Hashtbl.replace fs.root.entries) d.entries;
      fs.root.d_labels <- d.d_labels;
      fs.root.d_version <- d.d_version;
      (* A restore replaces arbitrary subtrees without touching their
         version counters, so derived caches keyed on (generation,
         version) must be told the whole namespace changed. *)
      fs.generation <- fs.generation + 1;
      Ok ()
  | Ok _ ->
      fs.file_count <- saved_count;
      Error (Os_error.Invalid "fs image: root must be a directory named /")
  | Error e ->
      fs.file_count <- saved_count;
      Error e
