(* Path conventions for the object store, shared by {!Obj_store} and
   {!Query}.

   Application-chosen collection and object names may contain ['/'],
   which the filesystem reserves. The escaping must be *injective*:
   the seed's [/ -> _] mapping made ["a/b"] and ["a_b"] alias to the
   same file — cross-object clobbering. So ['_'] itself is escaped. *)

let root = "/store"

let sanitize name =
  let buf = Buffer.create (String.length name + 4) in
  String.iter
    (fun c ->
      match c with
      | '_' -> Buffer.add_string buf "__"
      | '/' -> Buffer.add_string buf "_s"
      | c -> Buffer.add_char buf c)
    name;
  Buffer.contents buf

(* Inverse of {!sanitize} on its image; lenient elsewhere (an
   unescaped ['_'] from a hand-created file passes through) so
   directory listings never fail. *)
let unsanitize name =
  let n = String.length name in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    (if name.[!i] = '_' && !i + 1 < n then
       match name.[!i + 1] with
       | '_' ->
           Buffer.add_char buf '_';
           incr i
       | 's' ->
           Buffer.add_char buf '/';
           incr i
       | _ -> Buffer.add_char buf '_'
     else Buffer.add_char buf name.[!i]);
    incr i
  done;
  Buffer.contents buf

let collection_path collection = root ^ "/" ^ sanitize collection
let object_path collection id = collection_path collection ^ "/" ^ sanitize id
