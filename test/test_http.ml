(* Tests for the HTTP front-end model: URIs, headers/cookies,
   requests/responses, sessions, the simulated client, and the
   perimeter script sanitizer (experiment E9). *)

open W5_http

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

(* ---- uri ---- *)

let test_uri_parse () =
  let u = Uri.parse "/a/b%20c/d?x=1&y=hello+world&flag" in
  check string_c "path" "/a/b c/d" u.Uri.path;
  check (Alcotest.list string_c) "segments" [ "a"; "b c"; "d" ] u.Uri.segments;
  check (Alcotest.option string_c) "x" (Some "1") (Uri.query_get u "x");
  check (Alcotest.option string_c) "decoded" (Some "hello world") (Uri.query_get u "y");
  check (Alcotest.option string_c) "valueless" (Some "") (Uri.query_get u "flag")

let test_uri_normalization () =
  let u = Uri.parse "//a///b/./c" in
  check string_c "collapsed" "/a/b/c" u.Uri.path;
  check string_c "root" "/" (Uri.parse "").Uri.path

let test_uri_with_query () =
  check string_c "render" "/p?a=1&b=x%20y" (Uri.with_query "/p" [ ("a", "1"); ("b", "x y") ]);
  check string_c "no params" "/p" (Uri.with_query "/p" [])

let test_uri_decode_edge_cases () =
  check string_c "literal percent kept" "100%" (Uri.percent_decode "100%");
  check string_c "truncated escape" "%2" (Uri.percent_decode "%2");
  (* '+' is only a space in form-encoded query strings, not in paths *)
  check string_c "plus survives in paths" "a+b" (Uri.percent_decode "a+b");
  check string_c "encoded space still decodes" "a b" (Uri.percent_decode "a%20b")

let test_uri_plus_path_vs_query () =
  let u = Uri.parse "/file/a+b?q=c+d&r=e%2Bf" in
  check string_c "path keeps plus" "/file/a+b" u.Uri.path;
  check (Alcotest.option string_c) "query plus is space" (Some "c d")
    (Uri.query_get u "q");
  check (Alcotest.option string_c) "encoded plus survives" (Some "e+f")
    (Uri.query_get u "r")

let prop_uri_query_roundtrip =
  let arb =
    QCheck.make
      QCheck.Gen.(
        list_size (0 -- 5)
          (pair
             (string_size (1 -- 8) ~gen:(map Char.chr (97 -- 122)))
             (string_size (0 -- 8) ~gen:(map Char.chr (32 -- 126)))))
  in
  QCheck.Test.make ~name:"query params roundtrip through a URI" ~count:300 arb
    (fun params ->
      (* keys may repeat; compare first bindings only *)
      let u = Uri.parse (Uri.with_query "/p" params) in
      List.for_all
        (fun (k, _) -> Uri.query_get u k = List.assoc_opt k params)
        params)

(* ---- headers / cookies ---- *)

let test_headers_case_insensitive () =
  let h = Headers.set Headers.empty "Content-Type" "text/html" in
  check (Alcotest.option string_c) "lower" (Some "text/html")
    (Headers.get h "content-type");
  check bool_c "mem" true (Headers.mem h "CONTENT-TYPE");
  let h = Headers.set h "content-TYPE" "text/plain" in
  check int_c "set replaces across case" 1 (List.length (Headers.get_all h "content-type"))

let test_cookie_parsing () =
  let h = Headers.set Headers.empty "Cookie" "a=1; b = 2 ;c=3" in
  let cookies = Headers.parse_cookies h in
  check (Alcotest.option string_c) "a" (Some "1") (List.assoc_opt "a" cookies);
  check (Alcotest.option string_c) "b trimmed" (Some "2") (List.assoc_opt "b" cookies);
  check (Alcotest.option string_c) "c" (Some "3") (List.assoc_opt "c" cookies)

let test_set_cookie () =
  let h = Headers.set_cookie Headers.empty ~name:"sid" ~value:"xyz" in
  check
    (Alcotest.list (Alcotest.pair string_c string_c))
    "set-cookie" [ ("sid", "xyz") ] (Headers.cookies_set_by h)

(* ---- requests / responses ---- *)

let test_request_params () =
  let r =
    Request.make ~body:[ ("b", "2"); ("a", "body") ] Request.POST "/x?a=query"
  in
  check (Alcotest.option string_c) "query wins" (Some "query") (Request.param r "a");
  check (Alcotest.option string_c) "form" (Some "2") (Request.param r "b");
  check string_c "default" "z" (Request.param_or r "c" ~default:"z")

let test_response_helpers () =
  check int_c "ok" 200 (Response.status_code (Response.ok "x").Response.status);
  check int_c "forbidden" 403
    (Response.status_code (Response.forbidden "r").Response.status);
  let r = Response.redirect "/there" in
  check (Alcotest.option string_c) "location" (Some "/there")
    (Headers.get r.Response.headers "location");
  check bool_c "redirect is success" true (Response.is_success r);
  let r = Response.with_cookie (Response.ok "x") ~name:"k" ~value:"v" in
  check
    (Alcotest.list (Alcotest.pair string_c string_c))
    "cookie attached" [ ("k", "v") ]
    (Headers.cookies_set_by r.Response.headers)

(* ---- sessions ---- *)

let test_sessions () =
  let t = Session.create () in
  let s1 = Session.start t ~user:"alice" ~now:5 in
  let s2 = Session.start t ~user:"alice" ~now:6 in
  check bool_c "distinct sids" true (s1.Session.sid <> s2.Session.sid);
  (match Session.find t ~sid:s1.Session.sid with
  | Some s -> check string_c "user" "alice" s.Session.user
  | None -> Alcotest.fail "session lost");
  check int_c "active" 2 (Session.active t);
  Session.destroy t ~sid:s1.Session.sid;
  check int_c "after destroy" 1 (Session.active t);
  Session.expire_older_than t ~tick:10;
  check int_c "expired" 0 (Session.active t)

(* ---- client ---- *)

let test_client_cookies_and_redirects () =
  let server (req : Request.t) =
    match req.Request.uri.Uri.path with
    | "/login" ->
        Response.with_cookie (Response.ok "logged in") ~name:"sid" ~value:"s1"
    | "/bounce" -> Response.redirect "/target"
    | "/target" -> (
        match Request.cookie req "sid" with
        | Some sid -> Response.ok ("hello " ^ sid)
        | None -> Response.unauthorized "no cookie")
    | _ -> Response.not_found "?"
  in
  let client = Browser.make ~name:"tester" server in
  ignore (Browser.get client "/login");
  check (Alcotest.option string_c) "jar" (Some "s1")
    (List.assoc_opt "sid" (Browser.cookies client));
  let r = Browser.get client "/bounce" in
  check string_c "followed redirect with cookie" "hello s1" r.Response.body;
  check bool_c "history" true (Browser.saw client "hello s1")

let test_client_redirect_loop_bounded () =
  let server (req : Request.t) =
    ignore req;
    Response.redirect "/loop"
  in
  let client = Client.make server in
  let r = Client.get client "/loop" in
  check int_c "gives up with 302" 302 (Response.status_code r.Response.status)

(* ---- html / script filter ---- *)

let test_html_escape () =
  check string_c "escape" "&lt;a&gt; &amp; &quot;b&#39;&quot;"
    (Html.escape "<a> & \"b'\"");
  check bool_c "page is well formed" true
    (Html.page ~title:"t" "body" <> "")

(* An independent judge of sanitizer output, sharing no code with
   [Html.sanitize]: a plain reading of the markup into tags and
   attributes, then every attribute value has its character references
   decoded, whitespace and control characters removed and case folded
   before its scheme is read. Script-capable means a script-capable
   element, an event handler, a [style] or [srcdoc] attribute, or a
   URL-bearing value whose scheme is not http, https or mailto. *)
module Oracle = struct
  let script_elements =
    [
      "script"; "style"; "iframe"; "frame"; "frameset"; "object"; "embed";
      "applet"; "svg"; "math"; "base"; "link"; "meta"; "form"; "input";
      "button"; "template"; "noscript"; "xmp"; "plaintext"; "textarea";
      "bgsound";
    ]

  (* attributes a browser never reads as a URL *)
  let text_attributes = [ "title"; "alt"; "class"; "id"; "lang"; "dir" ]

  let named_references =
    [
      ("colon", ":"); ("Tab", "\t"); ("NewLine", "\n"); ("sol", "/");
      ("quest", "?"); ("num", "#"); ("lpar", "("); ("rpar", ")");
      ("quot", "\""); ("apos", "'"); ("amp", "&"); ("lt", "<"); ("gt", ">");
      ("excl", "!"); ("period", "."); ("comma", ","); ("semi", ";");
      ("equals", "="); ("nbsp", "\xc2\xa0");
    ]

  let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\x0c'
  let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

  let span s i stop =
    let n = String.length s in
    let rec go j = if j < n && not (stop s.[j]) then go (j + 1) else j in
    go i

  (* Character references as a browser decodes them in an attribute. *)
  let decode v =
    let n = String.length v in
    let b = Buffer.create n in
    let rec go i =
      if i >= n then ()
      else if v.[i] <> '&' then (Buffer.add_char b v.[i]; go (i + 1))
      else if i + 1 < n && v.[i + 1] = '#' then begin
        let hex = i + 2 < n && (v.[i + 2] = 'x' || v.[i + 2] = 'X') in
        let start = if hex then i + 3 else i + 2 in
        let digit c =
          match c with
          | '0' .. '9' -> Some (Char.code c - 48)
          | 'a' .. 'f' when hex -> Some (Char.code c - 87)
          | 'A' .. 'F' when hex -> Some (Char.code c - 55)
          | _ -> None
        in
        let rec number j acc =
          match if j < n then digit v.[j] else None with
          | Some d -> number (j + 1) (min 0x110000 ((acc * if hex then 16 else 10) + d))
          | None -> (j, acc)
        in
        let stop, code = number start 0 in
        if stop = start then (Buffer.add_char b '&'; go (i + 1))
        else begin
          if code > 0 && code < 128 then Buffer.add_char b (Char.chr code)
          else Buffer.add_string b "\xef\xbf\xbd";
          go (if stop < n && v.[stop] = ';' then stop + 1 else stop)
        end
      end
      else
        match
          List.find_opt
            (fun (name, _) ->
              let r = "&" ^ name ^ ";" in
              i + String.length r <= n && String.sub v i (String.length r) = r)
            named_references
        with
        | Some (name, text) ->
            Buffer.add_string b text;
            go (i + String.length name + 2)
        | None -> Buffer.add_char b '&'; go (i + 1)
    in
    go 0;
    Buffer.contents b

  let normalize v =
    decode v
    |> String.to_seq
    |> Seq.filter (fun c -> c > ' ' && c <> '\x7f')
    |> String.of_seq |> String.lowercase_ascii

  let scheme_allowed v =
    let v = normalize v in
    let first_of chars =
      List.fold_left
        (fun acc c ->
          match String.index_opt v c with Some i -> min acc i | None -> acc)
        (String.length v) chars
    in
    let colon = first_of [ ':' ] in
    colon >= first_of [ '/'; '?'; '#' ]
    || List.mem (String.sub v 0 colon) [ "http"; "https"; "mailto" ]

  (* Tags as (name, [attribute name, value]), lowercased names. *)
  let tags s =
    let n = String.length s in
    let rec attrs i acc =
      let i = span s i (fun c -> not (is_ws c || c = '/')) in
      if i >= n || s.[i] = '>' then (i + 1, List.rev acc)
      else
        let e = span s (i + 1) (fun c -> is_ws c || c = '/' || c = '>' || c = '=') in
        let name = String.lowercase_ascii (String.sub s i (e - i)) in
        let eq = span s e (fun c -> not (is_ws c)) in
        if eq < n && s.[eq] = '=' then
          let v = span s (eq + 1) (fun c -> not (is_ws c)) in
          if v < n && (s.[v] = '"' || s.[v] = '\'') then
            let q = s.[v] in
            let close = span s (v + 1) (fun c -> c = q) in
            attrs (close + 1)
              ((name, Some (String.sub s (v + 1) (min n close - v - 1))) :: acc)
          else
            let ve = span s v (fun c -> is_ws c || c = '>') in
            attrs ve ((name, Some (String.sub s v (ve - v))) :: acc)
        else attrs e ((name, None) :: acc)
    in
    let rec scan i acc =
      match String.index_from_opt s i '<' with
      | None -> List.rev acc
      | Some lt ->
          let start =
            if lt + 1 < n && is_alpha s.[lt + 1] then Some (lt + 1)
            else if lt + 2 < n && s.[lt + 1] = '/' && is_alpha s.[lt + 2] then
              Some (lt + 2)
            else None
          in
          (match start with
          | None -> if lt + 1 >= n then List.rev acc else scan (lt + 1) acc
          | Some ns ->
              let ne = span s ns (fun c -> is_ws c || c = '/' || c = '>') in
              let next, a = attrs ne [] in
              let tag = (String.lowercase_ascii (String.sub s ns (ne - ns)), a) in
              if next >= n then List.rev (tag :: acc) else scan next (tag :: acc))
    in
    scan 0 []

  let attribute_ok (name, value) =
    (not (String.starts_with ~prefix:"on" name))
    && name <> "style" && name <> "srcdoc"
    && (List.mem name text_attributes
       || match value with None -> true | Some v -> scheme_allowed v)

  let script_free s =
    List.for_all
      (fun (name, attributes) ->
        (not (List.mem name script_elements))
        && List.for_all attribute_ok attributes)
      (tags s)
end

let test_oracle_judges () =
  List.iter
    (fun (html, expected) ->
      check bool_c ("oracle on " ^ String.escaped html) expected
        (Oracle.script_free html))
    [
      ("<b>only bold</b>", true);
      ("ongoing = fine? no tag", true);
      ("<p>&lt;script&gt;alert(1)&lt;/script&gt;</p>", true);
      ("<a href=\"/app/core/social?user=a\">a</a>", true);
      ("<a title=\"javascript:x\">a</a>", true);
      ("<SCRIPT>x</script>", false);
      ("<img onerror=alert(1)>", false);
      ("<a onclick = \"x\">", false);
      ("<a href=javascript:x>", false);
      ("<a href=\"java&#x09;script&colon;x\">", false);
      ("<div style=\"color:red\">", false);
      ("<a href=\" data:text/html,x\">", false);
    ]

let test_sanitize () =
  let same name html =
    check bool_c (name ^ " (same string)") true (Html.sanitize html == html)
  in
  same "clean" "<b>hello</b>";
  same "word containing on" "ongoing = fine? no tag";
  same "online text" "we are online today";
  same "escaped script text" "<p>&lt;script&gt;x&lt;/script&gt;</p>";
  same "page" (Html.page ~title:"t" (Html.link ~href:"/app/core/blog?id=1&x=2" "x"));
  same "allowed schemes"
    "<a href=\"https://a.example/\">a</a><a href='mailto:u@h'>m</a>\
     <img src=http://i.example/p alt=\"p: q\">";
  same "scheme after whitespace" "<a href=\" https://a.example/\">a</a>";
  same "marked span"
    "<span class=\"w5-secret\">t</span><!--/w5-secret-->";
  let strips name expected html =
    check string_c name expected (Html.sanitize html)
  in
  strips "script removed" "ab" "a<script>evil()</script>b";
  strips "unterminated script" "a" "a<script>evil(";
  strips "case insensitive" "" "<ScRiPt>x</sCrIpT>";
  strips "handler removed" "<img>" "<img onerror=\"alert(1)\">";
  strips "spaced handler" "<a>x</a>" "<a onclick = \"x\">x</a>";
  strips "tab before =" "<img src=p>" "<img src=p onerror\t=alert(1)>";
  strips "js url dropped" "<a>" "<a href=javascript:x>";
  strips "entity colon" "<a>x</a>" "<a href=\"javascript&#58;x\">x</a>";
  strips "kept attributes stay" "<p class=c title=\"t\">"
    "<p class=c onclick=x title=\"t\" style=\"x\">";
  strips "unknown tag, content kept" "bold" "<font color=red>bold</font>";
  strips "iframe with content" "ab" "a<iframe srcdoc=x>z</iframe>b";
  strips "lone <" "1  2" "1 < 2";
  strips "no juxtaposition" "script>" "<<script>x</script>script>";
  strips "split tag name" "ipt>" "<scr<script>ipt>";
  strips "comment holding markup" "ab" "a<!--<script>x</script>-->b";
  strips "title text holding markup" "<title></title>"
    "<title><script>x</script></title>";
  strips "end tag attributes" "</a>" "</a onclick=x>"

(* The adversarial corpus: [test/xss_corpus.txt], one vector per line
   as "<id> <vector>", with \t, \n, \r, \0, \\ and \xHH escapes. *)
let unescape line =
  let b = Buffer.create (String.length line) in
  let n = String.length line in
  let rec go i =
    if i >= n then ()
    else if line.[i] = '\\' && i + 1 < n then
      match line.[i + 1] with
      | 't' -> Buffer.add_char b '\t'; go (i + 2)
      | 'n' -> Buffer.add_char b '\n'; go (i + 2)
      | 'r' -> Buffer.add_char b '\r'; go (i + 2)
      | '0' -> Buffer.add_char b '\000'; go (i + 2)
      | 'x' when i + 3 < n ->
          Buffer.add_char b (Char.chr (int_of_string ("0x" ^ String.sub line (i + 2) 2)));
          go (i + 4)
      | c -> Buffer.add_char b c; go (i + 2)
    else (Buffer.add_char b line.[i]; go (i + 1))
  in
  go 0;
  Buffer.contents b

let xss_corpus =
  lazy
    (let path =
       List.find Sys.file_exists [ "xss_corpus.txt"; "test/xss_corpus.txt" ]
     in
     In_channel.with_open_text path In_channel.input_all
     |> String.split_on_char '\n'
     |> List.filter_map (fun line ->
            if line = "" || line.[0] = '#' then None
            else
              match String.index_opt line ' ' with
              | None -> None
              | Some i ->
                  Some
                    ( String.sub line 0 i,
                      unescape (String.sub line (i + 1) (String.length line - i - 1)) )))

let test_adversarial_corpus () =
  let corpus = Lazy.force xss_corpus in
  check bool_c "corpus loaded" true (List.length corpus >= 80);
  let failures =
    List.concat_map
      (fun (id, vector) ->
        let out = Html.sanitize vector in
        List.filter_map
          (fun (ok, what) -> if ok then None else Some (id ^ ": " ^ what))
          [
            (* the oracle sees through every vector not marked inert *)
            ( String.ends_with ~suffix:"-inert" id
              || not (Oracle.script_free vector),
              "oracle misses the raw vector" );
            ( Oracle.script_free out,
              "sanitized output holds script: " ^ String.escaped out );
            (Html.sanitize out = out, "not idempotent");
          ])
      corpus
  in
  check (Alcotest.list string_c) "no failures" [] failures;
  let probes =
    List.filter (fun (id, _) -> String.starts_with ~prefix:"bypass-" id) corpus
  in
  check int_c "all eight bypass probes present" 8 (List.length probes)

let html_fragments =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      map (String.concat "")
        (list_size (0 -- 16)
           (oneofl
              [
                "<script>"; "</script>"; "<scr"; "ipt>"; "onload="; "on";
                "load="; "'x'"; "\"y\""; "javascript:"; "java"; "script:";
                "<b>safe</b>"; "hello "; "<img src=p>"; "="; " "; "\t"; "\n";
                "&#58;"; "&#x3A;"; "&colon;"; "&#x09;"; "&Tab;"; "&#0000106";
                "<a href="; "<img src="; "<iframe "; "srcdoc="; "data:";
                "vbscript:"; "style="; "<div "; "<object data="; "&lt;script&gt;";
                "<"; ">"; "/"; "<!--"; "-->"; "<title>"; "</title>";
                "http://x"; "&"; "#"; "<!doctype html>";
              ])))

let prop_sanitize_idempotent =
  QCheck.Test.make ~name:"sanitize is idempotent" ~count:1000 html_fragments
    (fun html ->
      let once = Html.sanitize html in
      Html.sanitize once = once)

let prop_sanitize_sound =
  QCheck.Test.make ~name:"sanitize output passes oracle" ~count:1000
    html_fragments (fun html -> Oracle.script_free (Html.sanitize html))

(* The benign corpus: every page the shipped apps render, as own and
   friend views, plus the provider pages, collected through the gateway
   from a seeded society. Each must come back as the very same string:
   unchanged bytes and no copy. *)
let test_benign_corpus_zero_copy () =
  let open W5_platform in
  let society = W5_workload.Populate.build_showcase () in
  let platform = society.W5_workload.Populate.platform in
  let users = society.W5_workload.Populate.users in
  let login = W5_workload.Populate.login society in
  List.iteri
    (fun i user ->
      (match Platform.enable_app platform ~user ~app:"core/calendar" with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let account = Platform.account_exn platform user in
      Policy.delegate_write account.Account.policy "core/calendar";
      ignore
        (Client.post (login user) "/app/core/calendar"
           ~form:
             [
               ("action", "add"); ("id", "e1"); ("title", "meet <" ^ user ^ ">");
               ("day", string_of_int (i mod 7)); ("start", "9"); ("len", "1");
             ]))
    users;
  let bodies = ref [] in
  List.iter
    (fun viewer ->
      let client = login viewer in
      let get path params =
        let r = Client.get client path ~params in
        if Response.status_code r.Response.status = 200 then
          bodies := r.Response.body :: !bodies
      in
      List.iter
        (fun owner ->
          ignore
            (Client.post client "/app/core/blog"
               ~form:
                 [
                   ("action", "comment"); ("user", owner); ("id", "b00");
                   ("text", "nice & <b>bold</b>");
                 ]);
          get "/app/core/social" [ ("user", owner) ];
          get "/app/core/photos" [ ("user", owner) ];
          get "/app/core/photos" [ ("action", "view"); ("user", owner); ("id", "p00") ];
          get "/app/core/blog" [ ("user", owner) ];
          get "/app/core/blog" [ ("user", owner); ("id", "b00") ];
          get "/app/core/calendar" [ ("user", owner) ])
        users;
      List.iter
        (fun (path, params) -> get path params)
        [
          ("/", []); ("/me", []); ("/settings", []); ("/invites", []);
          ("/audit", []); ("/source", [ ("app", "core/social") ]);
        ])
    users;
  let seen fragment =
    List.exists
      (fun body ->
        let n = String.length fragment in
        let rec at i =
          i + n <= String.length body
          && (String.sub body i n = fragment || at (i + 1))
        in
        at 0)
      !bodies
  in
  check bool_c "many pages" true (List.length !bodies >= 150);
  List.iter
    (fun fragment -> check bool_c ("covers " ^ fragment) true (seen fragment))
    [ "<!--/w5-secret-->"; "<div class=\"photo\">"; "<aside>"; "<article>" ];
  List.iter
    (fun body ->
      if not (Html.sanitize body == body) then
        Alcotest.failf "benign page changed or copied: %s" (String.escaped body))
    !bodies

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    Alcotest.test_case "uri parse" `Quick test_uri_parse;
    Alcotest.test_case "uri normalization" `Quick test_uri_normalization;
    Alcotest.test_case "uri with_query" `Quick test_uri_with_query;
    Alcotest.test_case "uri decode edges" `Quick test_uri_decode_edge_cases;
    Alcotest.test_case "uri plus: path vs query" `Quick
      test_uri_plus_path_vs_query;
    Alcotest.test_case "headers case insensitive" `Quick
      test_headers_case_insensitive;
    Alcotest.test_case "cookie parsing" `Quick test_cookie_parsing;
    Alcotest.test_case "set cookie" `Quick test_set_cookie;
    Alcotest.test_case "request params" `Quick test_request_params;
    Alcotest.test_case "response helpers" `Quick test_response_helpers;
    Alcotest.test_case "sessions" `Quick test_sessions;
    Alcotest.test_case "client cookies and redirects" `Quick
      test_client_cookies_and_redirects;
    Alcotest.test_case "client redirect loop bounded" `Quick
      test_client_redirect_loop_bounded;
    Alcotest.test_case "html escape" `Quick test_html_escape;
    Alcotest.test_case "oracle judges" `Quick test_oracle_judges;
    Alcotest.test_case "sanitize" `Quick test_sanitize;
    Alcotest.test_case "sanitize adversarial corpus" `Quick
      test_adversarial_corpus;
    Alcotest.test_case "sanitize benign pages zero-copy" `Quick
      test_benign_corpus_zero_copy;
  ]
  @ qsuite
      [ prop_uri_query_roundtrip; prop_sanitize_idempotent; prop_sanitize_sound ]

(* ---- dns ---- *)

let test_dns_records_and_resolution () =
  let dns = Dns.create ~zone:"w5.example" in
  check string_c "zone" "w5.example" (Dns.zone dns);
  (* apex and www resolve to the front end *)
  check bool_c "apex" true (Dns.resolve dns ~host:"w5.example" = Some Dns.Front_end);
  check bool_c "www" true (Dns.resolve dns ~host:"WWW.W5.Example" = Some Dns.Front_end);
  (* canonical app hosts *)
  check string_c "app host (lowercased)" "crop.deva.w5.example"
    (Dns.app_host dns ~app_id:"devA/crop");
  let host = Dns.register_app dns ~app_id:"devA/crop" in
  check bool_c "resolves to app" true
    (Dns.resolve dns ~host = Some (Dns.App "devA/crop"));
  (* out of zone *)
  check bool_c "foreign" true (Dns.resolve dns ~host:"evil.com" = None);
  check bool_c "unknown in zone" true (Dns.resolve dns ~host:"nope.w5.example" = None);
  Dns.remove_record dns ~host;
  check bool_c "removed" true (Dns.resolve dns ~host = None)

let test_dns_wildcards_and_cnames () =
  let dns = Dns.create ~zone:"w5.example" in
  Dns.add_record dns ~host:"*.photos" (Dns.App "core/photos");
  check bool_c "wildcard" true
    (Dns.resolve dns ~host:"anything.photos.w5.example" = Some (Dns.App "core/photos"));
  check bool_c "deep wildcard" true
    (Dns.resolve dns ~host:"a.b.photos.w5.example" = Some (Dns.App "core/photos"));
  (* cname chain *)
  Dns.add_record dns ~host:"pix" (Dns.Cname "real.photos");
  Dns.add_record dns ~host:"real.photos" (Dns.App "core/photos");
  check bool_c "cname" true
    (Dns.resolve dns ~host:"pix.w5.example" = Some (Dns.App "core/photos"));
  (* loops terminate *)
  Dns.add_record dns ~host:"a" (Dns.Cname "b");
  Dns.add_record dns ~host:"b" (Dns.Cname "a");
  check bool_c "loop safe" true (Dns.resolve dns ~host:"a.w5.example" = None);
  check bool_c "records listed" true (List.length (Dns.records dns) >= 5)

let suite =
  suite
  @ [
      Alcotest.test_case "dns records and resolution" `Quick
        test_dns_records_and_resolution;
      Alcotest.test_case "dns wildcards and cnames" `Quick
        test_dns_wildcards_and_cnames;
    ]

(* ---- misc coverage ---- *)

let test_uri_to_string_and_pp () =
  let u = Uri.parse "/a/b?x=1" in
  check string_c "to_string" "/a/b?x=1" (Uri.to_string u);
  check string_c "pp agrees" (Uri.to_string u) (Format.asprintf "%a" Uri.pp u)

let test_percent_encode_reserved () =
  check string_c "space" "a%20b" (Uri.percent_encode "a b");
  check string_c "amp" "a%26b" (Uri.percent_encode "a&b");
  check string_c "equals" "a%3db" (Uri.percent_encode "a=b");
  check string_c "unreserved kept" "a-b_c.d~e" (Uri.percent_encode "a-b_c.d~e")

let test_headers_add_vs_set () =
  let h = Headers.add (Headers.add Headers.empty "X" "1") "x" "2" in
  check int_c "add keeps both" 2 (List.length (Headers.get_all h "X"));
  check (Alcotest.option string_c) "get first" (Some "1") (Headers.get h "x");
  let h = Headers.set h "X" "3" in
  check (Alcotest.list string_c) "set collapses" [ "3" ] (Headers.get_all h "x")

let test_request_pp_and_cookie () =
  let r =
    Request.make
      ~headers:(Headers.set Headers.empty "Cookie" "k=v")
      Request.GET "/path"
  in
  check (Alcotest.option string_c) "cookie" (Some "v") (Request.cookie r "k");
  check (Alcotest.option string_c) "missing cookie" None (Request.cookie r "z");
  check bool_c "pp mentions path" true
    (let s = Format.asprintf "%a" Request.pp r in
     String.length s > 0)

let test_response_statuses () =
  List.iter
    (fun (r, code) ->
      check int_c (string_of_int code) code (Response.status_code r.Response.status))
    [
      (Response.bad_request "x", 400);
      (Response.unauthorized "x", 401);
      (Response.not_found "x", 404);
      (Response.too_many_requests "x", 429);
      (Response.server_error "x", 500);
    ];
  check bool_c "500 not success" false (Response.is_success (Response.server_error "x"));
  check string_c "reason" "Too Many Requests" (Response.status_reason Response.Too_many_requests_429)

let test_session_expiry_boundary () =
  let t = Session.create () in
  let s = Session.start t ~user:"u" ~now:10 in
  Session.expire_older_than t ~tick:10;
  (* created_at = 10 is NOT strictly older than 10 *)
  check bool_c "boundary kept" true (Session.find t ~sid:s.Session.sid <> None);
  Session.expire_older_than t ~tick:11;
  check bool_c "now expired" true (Session.find t ~sid:s.Session.sid = None)

let test_html_builders () =
  check string_c "link" "<a href=\"/x\">go</a>" (Html.link ~href:"/x" "go");
  check string_c "ul" "<ul><li>a</li></ul>" (Html.ul [ "a" ]);
  check string_c "attrs escaped" "<i a=\"&lt;\">x</i>"
    (Html.element "i" ~attrs:[ ("a", "<") ] "x")

let suite =
  suite
  @ [
      Alcotest.test_case "uri to_string/pp" `Quick test_uri_to_string_and_pp;
      Alcotest.test_case "percent encode reserved" `Quick
        test_percent_encode_reserved;
      Alcotest.test_case "headers add vs set" `Quick test_headers_add_vs_set;
      Alcotest.test_case "request pp and cookie" `Quick test_request_pp_and_cookie;
      Alcotest.test_case "response statuses" `Quick test_response_statuses;
      Alcotest.test_case "session expiry boundary" `Quick
        test_session_expiry_boundary;
      Alcotest.test_case "html builders" `Quick test_html_builders;
    ]

let test_get_params_merge_with_query () =
  let server (req : Request.t) =
    Response.ok
      (Printf.sprintf "%s|%s"
         (Request.param_or req "a" ~default:"-")
         (Request.param_or req "b" ~default:"-"))
  in
  let client = Client.make server in
  let r = Client.get client "/p?a=1" ~params:[ ("b", "2") ] in
  check string_c "both params survive the merge" "1|2" r.Response.body

let test_percent_decode_uppercase_hex () =
  check string_c "uppercase hex" " " (Uri.percent_decode "%20");
  check string_c "mixed case" "~" (Uri.percent_decode "%7E");
  check string_c "upper letters" "\xff" (Uri.percent_decode "%FF")

let suite =
  suite
  @ [
      Alcotest.test_case "get params merge" `Quick test_get_params_merge_with_query;
      Alcotest.test_case "percent decode uppercase" `Quick
        test_percent_decode_uppercase_hex;
    ]

let prop_escape_is_inert =
  let arb =
    QCheck.make ~print:(fun s -> s)
      QCheck.Gen.(string_size (0 -- 40) ~gen:(map Char.chr (32 -- 126)))
  in
  QCheck.Test.make ~name:"escaped text contains no active characters" ~count:300
    arb (fun s ->
      let out = Html.escape s in
      String.for_all (fun c -> c <> '<' && c <> '>' && c <> '"' && c <> '\'') out
      (* '&' survives only as part of an entity we generated *)
      && Oracle.script_free ("<div>" ^ out ^ "</div>"))

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_escape_is_inert ]
