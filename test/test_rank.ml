(* Tests for the code-search stack (experiment E5): dependency graph,
   PageRank, editors, composite search scoring. *)

open W5_difc
open W5_platform
open W5_rank

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

(* ---- depgraph ---- *)

let test_depgraph_basics () =
  let g = Depgraph.create () in
  Depgraph.add_edge g ~src:"a" ~dst:"b";
  Depgraph.add_edge g ~src:"a" ~dst:"c";
  Depgraph.add_edge g ~src:"b" ~dst:"c";
  Depgraph.add_edge g ~src:"a" ~dst:"b" (* duplicate: idempotent *);
  check int_c "nodes" 3 (Depgraph.node_count g);
  check int_c "edges" 3 (Depgraph.edge_count g);
  check (Alcotest.list string_c) "succ a" [ "b"; "c" ] (Depgraph.successors g "a");
  check (Alcotest.list string_c) "pred c" [ "a"; "b" ] (Depgraph.predecessors g "c");
  check int_c "in c" 2 (Depgraph.in_degree g "c");
  check int_c "out c" 0 (Depgraph.out_degree g "c");
  check bool_c "mem" true (Depgraph.mem g "a");
  check bool_c "not mem" false (Depgraph.mem g "zz")

let test_depgraph_union () =
  let g1 = Depgraph.of_edges [ ("a", "b") ] in
  let g2 = Depgraph.of_edges [ ("b", "c") ] in
  let u = Depgraph.union g1 g2 in
  check int_c "union nodes" 3 (Depgraph.node_count u);
  check int_c "union edges" 2 (Depgraph.edge_count u)

(* ---- pagerank ---- *)

let sum scores = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 scores

let test_pagerank_empty_and_single () =
  check int_c "empty" 0 (List.length (Pagerank.compute (Depgraph.create ())));
  let g = Depgraph.create () in
  Depgraph.add_node g "solo";
  match Pagerank.compute g with
  | [ ("solo", s) ] -> check bool_c "solo mass" true (abs_float (s -. 1.0) < 1e-6)
  | _ -> Alcotest.fail "expected one node"

let test_pagerank_sink_dominates () =
  (* everyone imports "lib"; lib imports nothing *)
  let g = Depgraph.of_edges [ ("a", "lib"); ("b", "lib"); ("c", "lib") ] in
  let scores = Pagerank.compute g in
  (match scores with
  | (top, _) :: _ -> check string_c "lib on top" "lib" top
  | [] -> Alcotest.fail "no scores");
  check bool_c "sums to one" true (abs_float (sum scores -. 1.0) < 1e-6)

let test_pagerank_symmetric_cycle () =
  let g = Depgraph.of_edges [ ("a", "b"); ("b", "c"); ("c", "a") ] in
  let scores = Pagerank.compute g in
  let values = List.map snd scores in
  match values with
  | [ x; y; z ] ->
      check bool_c "cycle is uniform" true
        (abs_float (x -. y) < 1e-9 && abs_float (y -. z) < 1e-9)
  | _ -> Alcotest.fail "expected three scores"

let test_pagerank_convergence_measure () =
  let g = Depgraph.of_edges [ ("a", "b"); ("b", "a"); ("c", "a") ] in
  let iterations = Pagerank.iterations_to_converge g in
  check bool_c "converges" true (iterations > 0 && iterations < 200)

let arb_graph =
  QCheck.make
    ~print:(fun edges ->
      String.concat ","
        (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) edges))
    QCheck.Gen.(list_size (1 -- 30) (pair (0 -- 9) (0 -- 9)))

let prop_pagerank_sums_to_one =
  QCheck.Test.make ~name:"pagerank sums to 1 on random graphs" ~count:100
    arb_graph (fun int_edges ->
      let edges =
        List.map
          (fun (a, b) -> ("n" ^ string_of_int a, "n" ^ string_of_int b))
          int_edges
      in
      let scores = Pagerank.compute (Depgraph.of_edges edges) in
      abs_float (sum scores -. 1.0) < 1e-6)

let prop_pagerank_positive =
  QCheck.Test.make ~name:"pagerank scores are positive" ~count:100 arb_graph
    (fun int_edges ->
      let edges =
        List.map
          (fun (a, b) -> ("n" ^ string_of_int a, "n" ^ string_of_int b))
          int_edges
      in
      List.for_all (fun (_, s) -> s > 0.0)
        (Pagerank.compute (Depgraph.of_edges edges)))

(* ---- editors ---- *)

let test_editor () =
  let e = Editor.create "ziff-davis" in
  check string_c "name" "ziff-davis" (Editor.name e);
  Editor.endorse e ~app:"a/good" ~reason:"audited 2026-06";
  check bool_c "endorsed" true (Editor.endorsed e ~app:"a/good");
  check (Alcotest.option string_c) "reason" (Some "audited 2026-06")
    (Editor.endorsement_reason e ~app:"a/good");
  Editor.flag_antisocial e ~app:"a/hoarder" ~reason:"proprietary format";
  check bool_c "flagged" true (Editor.flagged e ~app:"a/hoarder");
  check bool_c "others clean" false (Editor.flagged e ~app:"a/good");
  Editor.subscribe e ~user:"u1";
  Editor.subscribe e ~user:"u1";
  Editor.subscribe e ~user:"u2";
  check int_c "subscribers dedup" 2 (Editor.subscriber_count e);
  check bool_c "reputation grows" true (Editor.reputation e > 0.0)

(* ---- code search ---- *)

let handler ctx (_ : App_registry.env) = ignore (W5_os.Syscall.respond ctx "ok")

let registry_with_structure () =
  let registry = App_registry.create () in
  let dev name = Principal.make Principal.Developer name in
  let publish ~dev:d ~name ?(imports = []) ?(source = App_registry.Open_source "src") () =
    match
      App_registry.publish registry ~dev:d ~name ~version:"1.0" ~source ~imports
        handler
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "publish: %s" e
  in
  let base = dev "base" and appdev = dev "apps" in
  publish ~dev:base ~name:"stdlib" ();
  publish ~dev:appdev ~name:"photo" ~imports:[ "base/stdlib" ] ();
  publish ~dev:appdev ~name:"blog" ~imports:[ "base/stdlib" ] ();
  publish ~dev:appdev ~name:"island" ~source:App_registry.Closed_binary ();
  registry

let test_search_ranks_imported_lib_first () =
  let registry = registry_with_structure () in
  let results = Code_search.score_all registry in
  (match Code_search.rank_of results "base/stdlib" with
  | Some rank -> check int_c "stdlib first" 1 rank
  | None -> Alcotest.fail "stdlib missing");
  (* every registered app appears *)
  check int_c "all apps" 4 (List.length results)

let test_search_query_filter () =
  let registry = registry_with_structure () in
  let results = Code_search.search registry ~query:"PHOTO" in
  check int_c "one hit" 1 (List.length results);
  check string_c "hit" "apps/photo" (List.hd results).Code_search.app_id

let test_search_editor_influence () =
  let registry = registry_with_structure () in
  let editor = Editor.create "reviewer" in
  List.iter (fun u -> Editor.subscribe editor ~user:u) [ "a"; "b"; "c"; "d" ];
  (* flagging stdlib sinks it below the apps despite pagerank *)
  Editor.flag_antisocial editor ~app:"base/stdlib" ~reason:"proprietary";
  let results = Code_search.score_all ~editors:[ editor ] registry in
  (match Code_search.rank_of results "base/stdlib" with
  | Some rank -> check bool_c "flag sinks" true (rank > 1)
  | None -> Alcotest.fail "stdlib missing");
  let flagged =
    List.find (fun r -> r.Code_search.app_id = "base/stdlib") results
  in
  check (Alcotest.list string_c) "flagged_by" [ "reviewer" ]
    flagged.Code_search.flagged_by;
  (* endorsing island lifts it *)
  let before = Code_search.rank_of (Code_search.score_all registry) "apps/island" in
  Editor.endorse editor ~app:"apps/island" ~reason:"fine";
  let after =
    Code_search.rank_of (Code_search.score_all ~editors:[ editor ] registry) "apps/island"
  in
  match (before, after) with
  | Some b, Some a -> check bool_c "endorsement lifts" true (a < b)
  | _ -> Alcotest.fail "island missing"

let test_search_popularity () =
  let registry = registry_with_structure () in
  List.iter (fun _ -> App_registry.record_install registry "apps/blog")
    (List.init 50 Fun.id);
  let results = Code_search.score_all registry in
  match
    (Code_search.rank_of results "apps/blog", Code_search.rank_of results "apps/photo")
  with
  | Some blog, Some photo -> check bool_c "installs lift blog" true (blog < photo)
  | _ -> Alcotest.fail "apps missing"

let test_auditable_marker () =
  let registry = registry_with_structure () in
  let results = Code_search.score_all registry in
  let find id = List.find (fun r -> r.Code_search.app_id = id) results in
  check bool_c "open source auditable" true (find "apps/photo").Code_search.auditable;
  check bool_c "binary not" false (find "apps/island").Code_search.auditable

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    Alcotest.test_case "depgraph basics" `Quick test_depgraph_basics;
    Alcotest.test_case "depgraph union" `Quick test_depgraph_union;
    Alcotest.test_case "pagerank trivial graphs" `Quick
      test_pagerank_empty_and_single;
    Alcotest.test_case "pagerank sink dominates" `Quick
      test_pagerank_sink_dominates;
    Alcotest.test_case "pagerank symmetric cycle" `Quick
      test_pagerank_symmetric_cycle;
    Alcotest.test_case "pagerank convergence" `Quick
      test_pagerank_convergence_measure;
    Alcotest.test_case "editor" `Quick test_editor;
    Alcotest.test_case "search ranks imported lib first" `Quick
      test_search_ranks_imported_lib_first;
    Alcotest.test_case "search query filter" `Quick test_search_query_filter;
    Alcotest.test_case "search editor influence" `Quick
      test_search_editor_influence;
    Alcotest.test_case "search popularity" `Quick test_search_popularity;
    Alcotest.test_case "auditable marker" `Quick test_auditable_marker;
  ]
  @ qsuite [ prop_pagerank_sums_to_one; prop_pagerank_positive ]

(* ---- HITS (the ranking ablation) ---- *)

let test_hits_empty_and_basics () =
  let empty = Hits.compute (Depgraph.create ()) in
  check int_c "empty" 0 (List.length empty.Hits.authority);
  (* everyone imports lib: lib is the authority, importers are hubs *)
  let g = Depgraph.of_edges [ ("a", "lib"); ("b", "lib"); ("c", "lib") ] in
  let scores = Hits.compute g in
  (match scores.Hits.authority with
  | (top, _) :: _ -> check string_c "lib is the authority" "lib" top
  | [] -> Alcotest.fail "no authorities");
  check bool_c "lib is no hub" true
    (Hits.hub_of scores "lib" < Hits.hub_of scores "a");
  check bool_c "importers are hubs" true
    (Hits.hub_of scores "a" > 0.0 && Hits.authority_of scores "a" < 1e-9)

let test_hits_agrees_with_pagerank_on_star () =
  (* on a simple star both rankings put the hub-of-imports first *)
  let g = Depgraph.of_edges [ ("a", "lib"); ("b", "lib"); ("c", "lib"); ("c", "a") ] in
  let pr = Pagerank.compute g in
  let hits = Hits.compute g in
  let pr_top = fst (List.hd pr) in
  let hits_top = fst (List.hd hits.Hits.authority) in
  check string_c "same winner" pr_top hits_top

let prop_hits_scores_bounded =
  QCheck.Test.make ~name:"hits scores lie in [0,1]" ~count:100 arb_graph
    (fun int_edges ->
      let edges =
        List.map
          (fun (a, b) -> ("n" ^ string_of_int a, "n" ^ string_of_int b))
          int_edges
      in
      let scores = Hits.compute (Depgraph.of_edges edges) in
      List.for_all (fun (_, s) -> s >= -1e-9 && s <= 1.0 +. 1e-9)
        (scores.Hits.authority @ scores.Hits.hub))

let suite =
  suite
  @ [
      Alcotest.test_case "hits basics" `Quick test_hits_empty_and_basics;
      Alcotest.test_case "hits vs pagerank on star" `Quick
        test_hits_agrees_with_pagerank_on_star;
    ]
  @ qsuite [ prop_hits_scores_bounded ]

(* ---- additional rank coverage ---- *)

let test_depgraph_self_loop () =
  let g = Depgraph.of_edges [ ("a", "a") ] in
  check int_c "one node" 1 (Depgraph.node_count g);
  check int_c "one edge" 1 (Depgraph.edge_count g);
  (* pagerank still behaves *)
  let scores = Pagerank.compute g in
  check bool_c "sum" true (abs_float (sum scores -. 1.0) < 1e-6)

let test_pagerank_dangling_mass () =
  (* two nodes, one dangling: mass still sums to 1 *)
  let g = Depgraph.create () in
  Depgraph.add_node g "dangling";
  Depgraph.add_edge g ~src:"src" ~dst:"dangling";
  let scores = Pagerank.compute g in
  check bool_c "sum with dangling" true (abs_float (sum scores -. 1.0) < 1e-6);
  check bool_c "dangling accumulates" true
    (Pagerank.score_of scores "dangling" > Pagerank.score_of scores "src");
  check bool_c "score_of missing" true (Pagerank.score_of scores "ghost" = 0.0)

let test_rank_of_missing () =
  let registry = registry_with_structure () in
  let results = Code_search.score_all registry in
  check (Alcotest.option int_c) "missing app" None
    (Code_search.rank_of results "no/app")

let test_search_empty_query_returns_all () =
  let registry = registry_with_structure () in
  check int_c "all" 4 (List.length (Code_search.search registry ~query:""))

let test_hits_authority_of_missing () =
  let scores = Hits.compute (Depgraph.of_edges [ ("a", "b") ]) in
  check bool_c "missing is zero" true (Hits.authority_of scores "zz" = 0.0);
  check bool_c "hub of missing" true (Hits.hub_of scores "zz" = 0.0)

let suite =
  suite
  @ [
      Alcotest.test_case "depgraph self loop" `Quick test_depgraph_self_loop;
      Alcotest.test_case "pagerank dangling mass" `Quick test_pagerank_dangling_mass;
      Alcotest.test_case "rank_of missing" `Quick test_rank_of_missing;
      Alcotest.test_case "search empty query" `Quick test_search_empty_query_returns_all;
      Alcotest.test_case "hits missing nodes" `Quick test_hits_authority_of_missing;
    ]

let test_pagerank_damping_extremes () =
  let g = Depgraph.of_edges [ ("a", "hub"); ("b", "hub"); ("c", "hub") ] in
  (* damping 0: pure teleportation, uniform scores *)
  let uniform = Pagerank.compute ~damping:0.0 g in
  let values = List.map snd uniform in
  (match values with
  | v :: rest -> check bool_c "uniform at damping 0" true
      (List.for_all (fun x -> abs_float (x -. v) < 1e-9) rest)
  | [] -> Alcotest.fail "no scores");
  (* high damping concentrates mass on the hub *)
  let concentrated = Pagerank.compute ~damping:0.99 g in
  check bool_c "hub dominates at damping .99" true
    (Pagerank.score_of concentrated "hub" > 0.5)

let test_editor_missing_reason () =
  let e = Editor.create "quiet" in
  check (Alcotest.option string_c) "no reason" None
    (Editor.endorsement_reason e ~app:"x/y");
  check int_c "zero subscribers" 0 (Editor.subscriber_count e);
  check bool_c "zero reputation" true (Editor.reputation e = 0.0);
  check
    (Alcotest.list (Alcotest.pair string_c string_c))
    "empty lists" [] (Editor.endorsements e @ Editor.flags e)

let suite =
  suite
  @ [
      Alcotest.test_case "pagerank damping extremes" `Quick
        test_pagerank_damping_extremes;
      Alcotest.test_case "editor missing reason" `Quick test_editor_missing_reason;
    ]

(* ---- the editors app over HTTP ---- *)

let test_editor_app () =
  let platform = Platform.create () in
  let e1 = Editor.create "weekly" and e2 = Editor.create "monthly" in
  Editor.endorse e1 ~app:"a/good" ~reason:"audited";
  Editor.flag_antisocial e1 ~app:"a/bad" ~reason:"proprietary";
  let dev = Principal.make Principal.Developer "provider" in
  (match Editor_app.publish platform ~dev ~editors:[ e1; e2 ] with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Platform.signup platform ~user:"fan" ~password:"pw" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let anon = Browser.make (W5_platform.Gateway.handler platform) in
  (* the index and detail pages are public *)
  let r = Browser.get anon "/app/provider/editors" in
  check int_c "index" 200 (W5_http.Response.status_code r.W5_http.Response.status);
  check bool_c "lists both" true
    (Browser.saw anon "weekly" && Browser.saw anon "monthly");
  let r = Browser.get anon "/app/provider/editors" ~params:[ ("editor", "weekly") ] in
  check int_c "detail" 200 (W5_http.Response.status_code r.W5_http.Response.status);
  check bool_c "endorsement shown" true (Browser.saw anon "a/good");
  check bool_c "flag shown" true (Browser.saw anon "a/bad");
  (* subscribing needs a login and moves reputation *)
  let r =
    Browser.post anon "/app/provider/editors"
      ~form:[ ("action", "subscribe"); ("editor", "weekly") ]
  in
  check bool_c "anon cannot subscribe" true (Browser.saw anon "please log in");
  ignore r;
  let fan = Browser.make ~name:"fan" (W5_platform.Gateway.handler platform) in
  ignore (Browser.post fan "/login" ~form:[ ("user", "fan"); ("pass", "pw") ]);
  (match Platform.enable_app platform ~user:"fan" ~app:"provider/editors" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let before = Editor.reputation e1 in
  let r =
    Browser.post fan "/app/provider/editors"
      ~form:[ ("action", "subscribe"); ("editor", "weekly") ]
  in
  check int_c "subscribed" 200 (W5_http.Response.status_code r.W5_http.Response.status);
  check bool_c "reputation grew" true (Editor.reputation e1 > before)

let suite = suite @ [ Alcotest.test_case "editor app" `Quick test_editor_app ]

(* ---- dangling endpoints (regression) ----

   Removing a node leaves references to it inside other nodes'
   successor sets (Depgraph.remove_node is O(1) by design). PageRank
   and HITS used to crash on such ids with Not_found; they must drop
   them instead, matching score_of's lenient default. *)

let dangling_graph () =
  let g = Depgraph.of_edges [ ("a", "b"); ("a", "gone"); ("b", "gone") ] in
  Depgraph.remove_node g "gone";
  g

let test_pagerank_dangling_endpoint () =
  let g = dangling_graph () in
  check bool_c "gone is gone" false (Depgraph.mem g "gone");
  check (Alcotest.list string_c) "successor still dangling" [ "b"; "gone" ]
    (Depgraph.successors g "a");
  let scores = Pagerank.compute g in
  check int_c "scores for remaining nodes" 2 (List.length scores);
  check bool_c "mass sums to one" true (abs_float (sum scores -. 1.0) < 1e-6);
  check bool_c "unknown id scores zero" true
    (Pagerank.score_of scores "gone" = 0.0)

let test_hits_dangling_endpoint () =
  let g = dangling_graph () in
  let scores = Hits.compute g in
  check int_c "authority list covers nodes" 2 (List.length scores.Hits.authority);
  check bool_c "a is the hub" true (Hits.hub_of scores "a" > 0.0);
  check bool_c "unknown id scores zero" true
    (Hits.authority_of scores "gone" = 0.0)

let suite =
  suite
  @ [
      Alcotest.test_case "pagerank dangling endpoint" `Quick
        test_pagerank_dangling_endpoint;
      Alcotest.test_case "hits dangling endpoint" `Quick
        test_hits_dangling_endpoint;
    ]
