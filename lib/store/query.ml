open W5_difc
open W5_os

type id = string
type predicate = Record.t -> bool

let always _ = true

let field_equals key value r =
  match Record.get r key with Some v -> String.equal v value | None -> false

let field_contains key needle r =
  match Record.get r key with
  | Some v -> W5_obs.Substring.contains ~needle v
  | None -> false

let field_int_at_least key threshold r =
  match Record.get_int r key with Some n -> n >= threshold | None -> false

let has_field key r = Record.mem r key
let ( &&& ) p q r = p r && q r
let ( ||| ) p q r = p r || q r
let not_ p r = not (p r)
let custom f = f
let eval p r = p r

(* Query telemetry records sizes only (rows scanned, rows returned):
   counts are shaped like label sizes, not like record contents. *)
let meter_scanned ctx n =
  W5_obs.Metrics.inc
    (W5_obs.Metrics.counter
       (Kernel.metrics ctx.Kernel.kernel)
       "w5_store_rows_scanned_total"
       ~help:"Rows visited by store queries")
    ~by:n

let meter_rows ctx n =
  W5_obs.Metrics.observe
    (W5_obs.Metrics.histogram
       (Kernel.metrics ctx.Kernel.kernel)
       "w5_store_query_rows"
       ~help:"Result-set sizes of store queries")
    n

(* The collection's label summary: the join of every child's labels
   (secrecy union, integrity meet) plus the lookup path's secrecy —
   exactly what a tainting read of every row would absorb. Undecodable
   rows and stray directories count too: a scan's taint touches them.
   [None] for an empty collection, where a scan absorbs nothing.

   The children are read straight from Fs, not through Syscall: this
   is store bookkeeping, and nothing read here reaches the caller
   except by being absorbed into its label before any row is served.
   The lookup path is re-read on every query, since an ancestor's
   labels can change without touching the collection directory. *)
let summary kernel ~collection =
  let fs = Kernel.fs kernel in
  let dir = Store_path.collection_path collection in
  let join acc labels =
    match acc with
    | None -> Some labels
    | Some rows ->
        let joined = Flow.join rows labels in
        if joined == rows then acc else Some joined
  in
  match Fs.fold_children fs dir ~init:None ~f:join with
  | Error _ | Ok None -> None
  | Ok (Some rows) -> (
      match Fs.path_taint fs (dir ^ "/x") with
      | Ok lookup -> Some (Flow.raise_secrecy lookup.Flow.secrecy rows)
      | Error _ -> Some rows)

(* The taint a query imposes must depend only on the collection's
   contents — never on which rows the walk visits, or the taint itself
   becomes a channel about the rows it skipped. So the whole summary
   is absorbed before anything is read, and a restricted tag anywhere
   in the collection denies here, before any content moves. *)
let absorb_summary ctx ~collection =
  match summary ctx.Kernel.kernel ~collection with
  | None -> Ok ()
  | Some labels -> Syscall.absorb_labels ctx labels

let select ?limit ctx ~collection ~where =
  match Obj_store.list ctx ~collection with
  | Error _ as e -> e
  | Ok ids -> (
      match absorb_summary ctx ~collection with
      | Error _ as e -> e
      | Ok () -> (
          (* Every row is still read through the syscall layer. The
             walk stops once [limit] rows match — safe because the
             taint was settled above, independent of how far we get. *)
          let full = match limit with None -> max_int | Some n -> n in
          let rec visit acc found = function
            | [] -> Ok (List.rev acc)
            | _ when found >= full -> Ok (List.rev acc)
            | id :: rest -> (
                meter_scanned ctx 1;
                match
                  Syscall.read_file_taint ctx
                    (Obj_store.object_path collection id)
                with
                | Error e -> Error e
                | Ok data -> (
                    match Record.decode data with
                    | Error _ -> visit acc found rest
                    | Ok record ->
                        if where record then
                          visit ((id, record) :: acc) (found + 1) rest
                        else visit acc found rest))
          in
          match visit [] 0 ids with
          | Error _ as e -> e
          | Ok results ->
              meter_rows ctx (List.length results);
              Ok results))

let select_leaky ctx ~collection ~where =
  match Obj_store.list ctx ~collection with
  | Error _ as e -> e
  | Ok ids ->
      let step acc id =
        match Syscall.read_file ctx (Obj_store.object_path collection id) with
        | Error _ -> acc (* unreadable rows silently vanish: the leak *)
        | Ok data -> (
            match Record.decode data with
            | Error _ -> acc
            | Ok record -> if where record then (id, record) :: acc else acc)
      in
      let results = List.rev (List.fold_left step [] ids) in
      meter_rows ctx (List.length results);
      Ok results

let count ctx ~collection ~where =
  Result.map List.length (select ctx ~collection ~where)

let fold ctx ~collection ~init ~f =
  match Obj_store.list ctx ~collection with
  | Error _ as e -> e
  | Ok ids -> (
      match absorb_summary ctx ~collection with
      | Error _ as e -> e
      | Ok () ->
          meter_scanned ctx (List.length ids);
          let step acc id =
            match acc with
            | Error _ -> acc
            | Ok acc -> (
                match
                  Syscall.read_file_taint ctx
                    (Obj_store.object_path collection id)
                with
                | Error e -> Error e
                | Ok data -> (
                    match Record.decode data with
                    | Error _ -> Ok acc (* undecodable rows are skipped *)
                    | Ok record -> Ok (f acc id record)))
          in
          List.fold_left step (Ok init) ids)
