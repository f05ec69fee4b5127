(* Tests for the store's naming and for the collection label summary:
   object ids escape injectively onto the filesystem, and a query must
   return exactly what a tainting read of every row would, leave the
   caller with the same label, and fail with the same denials — with
   or without a [limit] that stops the walk early. *)

open W5_difc
open W5_os
open W5_store

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Os_error.to_string e)

let run kernel ?(labels = Flow.bottom) ?(caps = Capability.Set.empty) ~name f =
  let result = ref None in
  let proc =
    match
      Kernel.spawn kernel ~name
        ~owner:(Kernel.kernel_principal kernel)
        ~labels ~caps ~limits:Resource.unlimited
        (fun ctx -> result := Some (f ctx))
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "spawn: %s" (Os_error.to_string e)
  in
  Kernel.run_proc kernel proc;
  match !result with
  | Some v -> v
  | None -> Alcotest.failf "process died: %s" (Format.asprintf "%a" Proc.pp proc)

let fresh_store () =
  let kernel = Kernel.create () in
  run kernel ~name:"init" (fun ctx -> ok (Obj_store.init ctx));
  kernel

let counter kernel name =
  W5_obs.Metrics.value (W5_obs.Metrics.counter (Kernel.metrics kernel) name)

let rows_scanned kernel = counter kernel "w5_store_rows_scanned_total"

let put ctx ~collection ~id ?(labels = Flow.bottom) fields =
  ok (Obj_store.put ctx ~collection ~id ~labels (Record.of_fields fields))

(* ---- store_path: injective escaping ---- *)

let test_sanitize_injective () =
  (* "a/b" and "a_b" used to alias to the same on-disk name *)
  check bool_c "slash vs underscore" true
    (Store_path.sanitize "a/b" <> Store_path.sanitize "a_b");
  check string_c "slash" "a_sb" (Store_path.sanitize "a/b");
  check string_c "underscore doubles" "a__b" (Store_path.sanitize "a_b");
  List.iter
    (fun name ->
      check string_c
        ("roundtrip " ^ name)
        name
        (Store_path.unsanitize (Store_path.sanitize name)))
    [ "plain"; "a/b"; "a_b"; "a__b"; "_"; "/"; "_s"; "a_sb"; "" ]

let prop_sanitize_roundtrip =
  let arb =
    QCheck.make
      QCheck.Gen.(
        string_size (0 -- 16)
          ~gen:(oneof [ map Char.chr (97 -- 122); return '_'; return '/' ]))
      ~print:(fun s -> s)
  in
  QCheck.Test.make ~name:"sanitize roundtrips" ~count:500 arb (fun name ->
      Store_path.unsanitize (Store_path.sanitize name) = name)

let test_no_aliasing_in_store () =
  (* two logically distinct ids must be two distinct objects *)
  let kernel = fresh_store () in
  run kernel ~name:"writer" (fun ctx ->
      ok (Obj_store.create_collection ctx "files" ~labels:Flow.bottom);
      put ctx ~collection:"files" ~id:"a/b" [ ("v", "slash") ];
      put ctx ~collection:"files" ~id:"a_b" [ ("v", "underscore") ];
      check string_c "slash object" "slash"
        (Record.get_or
           (ok (Obj_store.get ctx ~collection:"files" ~id:"a/b" ()))
           "v" ~default:"?");
      check string_c "underscore object" "underscore"
        (Record.get_or
           (ok (Obj_store.get ctx ~collection:"files" ~id:"a_b" ()))
           "v" ~default:"?");
      (* listing returns logical ids in logical order *)
      check (Alcotest.list string_c) "list" [ "a/b"; "a_b" ]
        (ok (Obj_store.list ctx ~collection:"files")))

(* ---- query engine edges ---- *)

let test_field_contains_large_value () =
  (* ~1 MB field: the old recursive substring search overflowed, and a
     [String.sub] per position allocated about a million strings *)
  let big = String.make (1024 * 1024) 'x' ^ "needle" in
  let r = Record.of_fields [ ("blob", big) ] in
  let needle = Query.field_contains "blob" "needle" in
  check bool_c "found at end" true (Query.eval needle r);
  check bool_c "absent" false
    (Query.eval (Query.field_contains "blob" "absent") r);
  let evals = 10 in
  let before = Gc.minor_words () in
  for _ = 1 to evals do
    ignore (Sys.opaque_identity (Query.eval needle r))
  done;
  let per_eval = (Gc.minor_words () -. before) /. float_of_int evals in
  check bool_c
    (Printf.sprintf "compares in place (%.0f minor words per eval)" per_eval)
    true (per_eval < 1000.);
  let kernel = fresh_store () in
  run kernel ~name:"querier" (fun ctx ->
      ok (Obj_store.create_collection ctx "blobs" ~labels:Flow.bottom);
      put ctx ~collection:"blobs" ~id:"b1" [ ("blob", big) ];
      let rows =
        ok (Query.select ctx ~collection:"blobs" ~where:needle)
      in
      check int_c "selected through 1MB field" 1 (List.length rows))

(* ---- the summary on the single query path ---- *)

let select_ids ?limit ctx ~collection where =
  List.map fst (ok (Query.select ?limit ctx ~collection ~where))

let test_taint_covers_unmatched_rows () =
  let kernel = fresh_store () in
  let tag = Tag.fresh ~name:"idx.s" Tag.Secrecy in
  let secret = Flow.make ~secrecy:(Label.singleton tag) () in
  run kernel ~name:"seed" (fun ctx ->
      ok (Obj_store.create_collection ctx "msgs" ~labels:Flow.bottom);
      put ctx ~collection:"msgs" ~id:"m1" [ ("u", "bob") ];
      put ctx ~collection:"msgs" ~id:"m2" ~labels:secret
        [ ("u", "secret-admirer") ]);
  let taint_after ?limit () =
    run kernel ~name:"querier" (fun ctx ->
        let ids =
          select_ids ?limit ctx ~collection:"msgs"
            (Query.field_equals "u" "bob")
        in
        check (Alcotest.list string_c) "public match only" [ "m1" ] ids;
        (Syscall.my_labels ctx).Flow.secrecy)
  in
  (* m2 never matches, and with [~limit:1] it is never even read, yet
     the taint must carry its tag *)
  check bool_c "absorbs the unmatched row" true (Label.mem tag (taint_after ()));
  check bool_c "absorbs the unvisited row" true
    (Label.mem tag (taint_after ~limit:1 ()))

let test_restricted_tag_denied () =
  let kernel = fresh_store () in
  let locked = Tag.fresh ~name:"idx.locked" ~restricted:true Tag.Secrecy in
  run kernel ~name:"seed" (fun ctx ->
      ok (Obj_store.create_collection ctx "vault" ~labels:Flow.bottom);
      put ctx ~collection:"vault" ~id:"v1" [ ("u", "bob") ];
      put ctx ~collection:"vault" ~id:"v2"
        ~labels:(Flow.make ~secrecy:(Label.singleton locked) ())
        [ ("u", "eve") ]);
  (* without [locked+], the query is denied before any row is read —
     even when the walk would stop at the public row first *)
  run kernel ~name:"snoop" (fun ctx ->
      List.iter
        (fun limit ->
          let scanned = rows_scanned kernel in
          (match
             Query.select ?limit ctx ~collection:"vault"
               ~where:(Query.field_equals "u" "bob")
           with
          | Error e when Os_error.is_denied e -> ()
          | Ok _ -> Alcotest.fail "restricted collection served"
          | Error e -> Alcotest.failf "wrong error: %s" (Os_error.to_string e));
          check int_c "no row read" scanned (rows_scanned kernel))
        [ None; Some 1 ]);
  (* with t+, the same query succeeds *)
  run kernel
    ~caps:(Capability.Set.of_list [ Capability.make locked Capability.Plus ])
    ~name:"reader" (fun ctx ->
      check (Alcotest.list string_c) "served under t+" [ "v1" ]
        (select_ids ctx ~collection:"vault" (Query.field_equals "u" "bob")))

(* ---- writes that bypass Obj_store ---- *)

let seed_flat kernel ~collection ~rows ~matches =
  run kernel ~name:"seed" (fun ctx ->
      ok (Obj_store.create_collection ctx collection ~labels:Flow.bottom);
      for i = 0 to rows - 1 do
        put ctx ~collection
          ~id:(Printf.sprintf "r%05d" i)
          [ ("u", if i < matches then "hot" else "u" ^ string_of_int i) ]
      done)

let test_raw_write_is_seen () =
  let kernel = fresh_store () in
  seed_flat kernel ~collection:"live" ~rows:6 ~matches:2;
  let hot ctx = select_ids ctx ~collection:"live" (Query.field_equals "u" "hot") in
  run kernel ~name:"reader" (fun ctx ->
      check int_c "before" 2 (List.length (hot ctx)));
  (* a hostile app rewrites a row straight through Syscall *)
  run kernel ~name:"hostile" (fun ctx ->
      ok
        (Syscall.write_file ctx
           (Obj_store.object_path "live" "r00005")
           ~data:(Record.encode (Record.of_fields [ ("u", "hot") ]))));
  run kernel ~name:"reader2" (fun ctx ->
      check (Alcotest.list string_c) "sees the raw write"
        [ "r00000"; "r00001"; "r00005" ]
        (hot ctx))

let test_stray_directory_fails () =
  let kernel = fresh_store () in
  seed_flat kernel ~collection:"odd" ~rows:4 ~matches:1;
  run kernel ~name:"mkdir" (fun ctx ->
      ok
        (Syscall.mkdir ctx
           (Obj_store.collection_path "odd" ^ "/subdir")
           ~labels:Flow.bottom));
  run kernel ~name:"querier" (fun ctx ->
      (* the walk reaches the sub-directory and fails on it, as a
         tainting read of it does *)
      let expected =
        match
          Syscall.read_file_taint ctx
            (Obj_store.collection_path "odd" ^ "/subdir")
        with
        | Error e -> Os_error.to_string e
        | Ok _ -> Alcotest.fail "read a directory as a row"
      in
      match
        Query.select ctx ~collection:"odd" ~where:(Query.field_equals "u" "hot")
      with
      | Error e -> check string_c "same error" expected (Os_error.to_string e)
      | Ok _ -> Alcotest.fail "selected past a stray directory")

(* ---- the summary property ----

   Random mutation histories (puts, deletes, raw writes, junk rows,
   secret and endorsed rows), then random queries: [Query.select] must
   return what a reference process that tainting-reads every row
   returns, and leave the caller with the same label. With [~limit:1]
   the rows are a prefix of that result and the label is the same:
   the summary absorbs the rows the walk never reaches. *)

type op =
  | Put of string * string * [ `Public | `Secret | `Endorsed ]
  | Delete of string
  | Raw_write of string * string (* id, raw bytes *)

let op_gen =
  QCheck.Gen.(
    let id = map (fun i -> "i" ^ string_of_int i) (0 -- 5) in
    let put kind = map2 (fun id v -> Put (id, "v" ^ string_of_int v, kind)) id (0 -- 3) in
    frequency
      [
        (5, put `Public);
        (2, put `Secret);
        (2, put `Endorsed);
        (2, map (fun id -> Delete id) id);
        (1, map (fun id -> Raw_write (id, "%%%junk%%%")) id);
        (1, map2 (fun id v -> Raw_write (id, Record.encode (Record.of_fields [ ("u", "v" ^ string_of_int v) ]))) id (0 -- 3));
      ])

let arb_history =
  QCheck.make
    QCheck.Gen.(list_size (1 -- 25) op_gen)
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | Put (id, v, kind) ->
                 Printf.sprintf "put %s=%s%s" id v
                   (match kind with
                   | `Public -> ""
                   | `Secret -> " (secret)"
                   | `Endorsed -> " (endorsed)")
             | Delete id -> "del " ^ id
             | Raw_write (id, data) -> Printf.sprintf "raw %s=%S" id data)
           ops))

(* What a tainting read of every row returns: rows in id order, and
   the caller's label afterwards. *)
let reference ctx ~collection ~where =
  match Obj_store.list ctx ~collection with
  | Error e -> Error (Os_error.to_string e)
  | Ok ids ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | id :: rest -> (
            match
              Syscall.read_file_taint ctx (Obj_store.object_path collection id)
            with
            | Error e -> Error (Os_error.to_string e)
            | Ok data -> (
                match Record.decode data with
                | Ok r when Query.eval where r -> go ((id, Record.fields r) :: acc) rest
                | Ok _ | Error _ -> go acc rest))
      in
      Result.map (fun rows -> (rows, Syscall.my_labels ctx)) (go [] ids)

let rec is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys -> x = y && is_prefix xs ys

let prop_select_equals_reference =
  QCheck.Test.make ~name:"select = tainting read of every row" ~count:60
    arb_history (fun ops ->
      let kernel = fresh_store () in
      let tag = Tag.fresh ~name:"prop.s" Tag.Secrecy in
      let vouch = Tag.fresh ~name:"prop.i" Tag.Integrity in
      let endorsed = Flow.make ~integrity:(Label.singleton vouch) () in
      let labels_of = function
        | `Public -> Flow.bottom
        | `Secret -> Flow.make ~secrecy:(Label.singleton tag) ()
        | `Endorsed -> endorsed
      in
      (* the writer holds [vouch] integrity, so it may create endorsed
         rows; observers start endorsed too, so the meet is visible *)
      run kernel ~name:"mutate" ~labels:endorsed (fun ctx ->
          ok (Obj_store.create_collection ctx "h" ~labels:Flow.bottom);
          List.iter
            (function
              | Put (id, v, kind) ->
                  put ctx ~collection:"h" ~id ~labels:(labels_of kind)
                    [ ("u", v) ]
              | Delete id -> (
                  match Obj_store.delete ctx ~collection:"h" ~id with
                  | Ok () | Error (Os_error.Not_found _) -> ()
                  | Error e ->
                      Alcotest.failf "delete: %s" (Os_error.to_string e))
              | Raw_write (id, data) -> (
                  let path = Obj_store.object_path "h" id in
                  match Syscall.write_file ctx path ~data with
                  | Ok () -> ()
                  | Error (Os_error.Not_found _) ->
                      ok
                        (Syscall.create_file ctx path ~labels:Flow.bottom ~data)
                  | Error e ->
                      Alcotest.failf "raw write: %s" (Os_error.to_string e)))
            ops);
      let observe f = run kernel ~name:"observe" ~labels:endorsed f in
      let select ?limit where ctx =
        match Query.select ?limit ctx ~collection:"h" ~where with
        | Ok rows ->
            Ok
              (List.map (fun (id, r) -> (id, Record.fields r)) rows,
               Syscall.my_labels ctx)
        | Error e -> Error (Os_error.to_string e)
      in
      List.for_all
        (fun where ->
          let expected = observe (reference ~collection:"h" ~where) in
          match (expected, observe (select where), observe (select ~limit:1 where)) with
          | Ok (rows, labels), Ok (rows_s, labels_s), Ok (rows_l, labels_l) ->
              rows_s = rows
              && Flow.equal_labels labels_s labels
              && List.length rows_l = min 1 (List.length rows)
              && is_prefix rows_l rows
              && Flow.equal_labels labels_l labels
          | Error a, Error b, _ -> a = b
          | _ -> false)
        [
          Query.field_equals "u" "v0";
          Query.field_equals "u" "v9";
          Query.(field_equals "u" "v1" &&& has_field "u");
          Query.always;
        ])

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    Alcotest.test_case "sanitize injective" `Quick test_sanitize_injective;
    Alcotest.test_case "no aliasing in store" `Quick test_no_aliasing_in_store;
    Alcotest.test_case "field_contains on 1MB value" `Quick
      test_field_contains_large_value;
    Alcotest.test_case "taint covers unmatched rows" `Quick
      test_taint_covers_unmatched_rows;
    Alcotest.test_case "restricted tag denied" `Quick
      test_restricted_tag_denied;
    Alcotest.test_case "raw write is seen" `Quick test_raw_write_is_seen;
    Alcotest.test_case "stray directory fails" `Quick
      test_stray_directory_fails;
  ]
  @ qsuite [ prop_sanitize_roundtrip; prop_select_equals_reference ]
