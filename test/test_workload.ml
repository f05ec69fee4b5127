(* Tests for the workload substrate: PRNG determinism, society
   generation invariants, and trace generation/replay. *)

open W5_workload

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

let test_rng_determinism () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  let xs = List.init 50 (fun _ -> Rng.next a) in
  let ys = List.init 50 (fun _ -> Rng.next b) in
  check bool_c "same stream" true (xs = ys);
  let c = Rng.create ~seed:124 in
  let zs = List.init 50 (fun _ -> Rng.next c) in
  check bool_c "different seed differs" false (xs = zs)

let test_rng_ranges () =
  let rng = Rng.create ~seed:7 in
  List.iter
    (fun _ ->
      let v = Rng.int rng 10 in
      check bool_c "bounded" true (v >= 0 && v < 10))
    (List.init 200 Fun.id);
  let s = Rng.string rng ~length:16 in
  check int_c "length" 16 (String.length s);
  (match Rng.pick rng [ 1; 2; 3 ] with 1 | 2 | 3 -> () | _ -> Alcotest.fail "pick");
  match Rng.int rng 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero bound accepted"

let test_rng_weighted_and_sample () =
  let rng = Rng.create ~seed:9 in
  (* weight 0 entries never picked *)
  List.iter
    (fun _ ->
      match Rng.pick_weighted rng [ ("never", 0); ("always", 5) ] with
      | "always" -> ()
      | _ -> Alcotest.fail "zero-weight picked")
    (List.init 100 Fun.id);
  let sample = Rng.sample rng 3 [ 1; 2; 3; 4; 5 ] in
  check int_c "sample size" 3 (List.length sample);
  check int_c "distinct" 3 (List.length (List.sort_uniq compare sample));
  check int_c "oversample clamps" 2 (List.length (Rng.sample rng 10 [ 1; 2 ]))

let test_friend_graph_symmetric () =
  let rng = Rng.create ~seed:3 in
  let users = List.init 10 Populate.user_name in
  let graph = Populate.random_friend_graph rng ~users ~friends_per_user:3 in
  let friends_of u = Option.value (List.assoc_opt u graph) ~default:[] in
  List.iter
    (fun (u, friends) ->
      check bool_c (u ^ " not self-friend") false (List.mem u friends);
      List.iter
        (fun f ->
          check bool_c (u ^ "<->" ^ f ^ " symmetric") true
            (List.mem u (friends_of f)))
        friends)
    graph

let test_society_build_invariants () =
  let society =
    Populate.build ~seed:5 ~users:5 ~friends_per_user:2 ~photos_per_user:1
      ~blog_posts_per_user:1 ()
  in
  check int_c "users" 5 (List.length society.Populate.users);
  (* everyone can log in and list their own photo *)
  let u = List.hd society.Populate.users in
  let c =
    Browser.login (W5_platform.Gateway.handler society.Populate.platform) ~user:u
      ~password:(Populate.password u)
  in
  let r =
    Browser.get c
      ("/app/" ^ society.Populate.photo_id)
      ~params:[ ("action", "list"); ("user", u) ]
  in
  check int_c "photo list" 200 (W5_http.Response.status_code r.W5_http.Response.status);
  check bool_c "photo seeded" true (Browser.saw c "p00")

let test_trace_generate_and_replay () =
  let society =
    Populate.build ~seed:6 ~users:6 ~friends_per_user:2 ~photos_per_user:1
      ~blog_posts_per_user:1 ()
  in
  let rng = Rng.create ~seed:99 in
  let actions = Trace.generate rng ~society ~mix:Trace.read_heavy ~length:120 in
  check int_c "length" 120 (List.length actions);
  (* deterministic from the seed *)
  let rng2 = Rng.create ~seed:99 in
  let actions2 = Trace.generate rng2 ~society ~mix:Trace.read_heavy ~length:120 in
  check bool_c "deterministic" true (actions = actions2);
  let outcome = Trace.replay society actions in
  check int_c "all executed" 120 outcome.Trace.total;
  check int_c "accounted" 120
    (outcome.Trace.ok + outcome.Trace.forbidden + outcome.Trace.throttled
   + outcome.Trace.failed);
  check int_c "no unexpected failures" 0 outcome.Trace.failed;
  check bool_c "reads mostly succeed or are refused" true
    (outcome.Trace.ok > 0 && outcome.Trace.forbidden > 0)

let test_fill_dependency_graph () =
  let platform = W5_platform.Platform.create () in
  let ids = Populate.fill_dependency_graph ~seed:2 platform ~modules:20 ~imports_per_module:2 in
  check int_c "all published" 20 (List.length ids);
  let graph = W5_rank.Code_search.graph_of_registry (W5_platform.Platform.registry platform) in
  check int_c "nodes incl. targets" 20 (W5_rank.Depgraph.node_count graph);
  check bool_c "has edges" true (W5_rank.Depgraph.edge_count graph > 0)

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
    Alcotest.test_case "rng weighted and sample" `Quick test_rng_weighted_and_sample;
    Alcotest.test_case "friend graph symmetric" `Quick test_friend_graph_symmetric;
    Alcotest.test_case "society build invariants" `Quick test_society_build_invariants;
    Alcotest.test_case "trace generate and replay" `Quick test_trace_generate_and_replay;
    Alcotest.test_case "fill dependency graph" `Quick test_fill_dependency_graph;
  ]

(* ---- trace mixes and action rendering ---- *)

let test_trace_mixes_differ () =
  let society =
    Populate.build ~seed:8 ~users:4 ~friends_per_user:1 ~photos_per_user:1
      ~blog_posts_per_user:1 ()
  in
  let writes actions =
    List.length
      (List.filter
         (function
           | Trace.Upload_photo _ | Trace.Post_blog _ | Trace.Add_friend _ ->
               true
           | Trace.View_profile _ | Trace.List_photos _ | Trace.Read_blog _ ->
               false)
         actions)
  in
  let rng = Rng.create ~seed:10 in
  let heavy = Trace.generate rng ~society ~mix:Trace.write_heavy ~length:300 in
  let rng = Rng.create ~seed:10 in
  let light = Trace.generate rng ~society ~mix:Trace.read_heavy ~length:300 in
  check bool_c "write-heavy writes more" true (writes heavy > writes light);
  check bool_c "read-heavy mostly reads" true (writes light < 100)

let test_action_pp () =
  let rendered =
    Format.asprintf "%a" Trace.pp_action
      (Trace.View_profile { viewer = "a"; target = "b" })
  in
  check bool_c "mentions both" true
    (String.length rendered > 0
    && String.length rendered >= String.length "a views b's profile")

let test_rng_float_and_bool () =
  let rng = Rng.create ~seed:77 in
  List.iter
    (fun _ ->
      let f = Rng.float rng 2.0 in
      check bool_c "float bounded" true (f >= 0.0 && f < 2.0))
    (List.init 100 Fun.id);
  (* both boolean values appear over 100 draws *)
  let draws = List.init 100 (fun _ -> Rng.bool rng) in
  check bool_c "both bools" true (List.mem true draws && List.mem false draws);
  (* shuffle preserves elements *)
  let xs = [ 1; 2; 3; 4; 5 ] in
  check (Alcotest.list int_c) "shuffle is a permutation" xs
    (List.sort compare (Rng.shuffle rng xs))

(* ---- scripted soak golden ----

   The committed file is the output of `w5 soak` (defaults): a whole
   1200-request trace admitted at once and interleaved by the seeded
   scheduler. Byte-equality against it proves the interleaving is
   deterministic across processes, not just within one. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_soak_golden () =
  let _, s = Soak.run Soak.default_config in
  let golden =
    read_file
      (List.find Sys.file_exists [ "golden/soak.txt"; "test/golden/soak.txt" ])
  in
  check Alcotest.string "byte-for-byte against the committed summary" golden
    (Soak.render s)

let suite =
  suite
  @ [
      Alcotest.test_case "trace mixes differ" `Quick test_trace_mixes_differ;
      Alcotest.test_case "action pp" `Quick test_action_pp;
      Alcotest.test_case "rng float/bool/shuffle" `Quick test_rng_float_and_bool;
      Alcotest.test_case "soak summary golden byte-for-byte" `Slow
        test_soak_golden;
    ]
