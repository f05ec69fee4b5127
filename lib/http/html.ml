let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | '\'' -> Buffer.add_string buf "&#39;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let page ~title body =
  Printf.sprintf
    "<!doctype html><html><head><title>%s</title></head><body>%s</body></html>"
    (escape title) body

let element tag ?(attrs = []) body =
  let attr_str =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf " %s=\"%s\"" k (escape v)) attrs)
  in
  Printf.sprintf "<%s%s>%s</%s>" tag attr_str body tag

let text = escape
let link ~href label = element "a" ~attrs:[ ("href", href) ] (escape label)
let ul items = element "ul" (String.concat "" (List.map (element "li") items))

(* ---- the perimeter script filter (§3.5) ----

   One pass over the response, tokenized the way a browser tokenizes
   it: data, tags, attribute names and attribute values. Every
   comparison folds case byte by byte in place, so the scan allocates
   nothing per byte. Dropped tokens are cut out as byte ranges; the
   output buffer exists only once something has been dropped. *)

let lower c =
  if c >= 'A' && c <= 'Z' then Char.unsafe_chr (Char.code c + 32) else c

let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

(* HTML's whitespace; the tokenizer sees CR as LF. *)
let is_space c =
  c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\x0c'

(* [s.[i ..]] and [t.[j ..]] agree on [len] bytes, ignoring ASCII case. *)
let rec same_ci s i t j len =
  len = 0 || (lower s.[i] = lower t.[j] && same_ci s (i + 1) t (j + 1) (len - 1))

(* A word set hashed on the case-folded word: membership of [s.[i, j)]
   hashes those bytes in place and compares the few words in its
   bucket. *)
let rec fold_hash s i j h =
  if i >= j then h land 63
  else fold_hash s (i + 1) j ((h * 31) + Char.code (lower s.[i]))

let word_set words =
  let table = Array.make 64 [] in
  List.iter
    (fun w ->
      let h = fold_hash w 0 (String.length w) 0 in
      table.(h) <- w :: table.(h))
    words;
  table

let rec mem_bucket s i len = function
  | [] -> false
  | w :: rest ->
      (String.length w = len && same_ci s i w 0 len) || mem_bucket s i len rest

let mem table s i j = mem_bucket s i (j - i) table.(fold_hash s i j 0)

(* Everything [Html], the shipped apps and the examples emit, plus the
   common text, list, table and section elements. *)
let kept_elements =
  word_set
    [
      "html"; "head"; "title"; "body"; "h1"; "h2"; "h3"; "h4"; "h5"; "h6";
      "p"; "br"; "hr"; "div"; "span"; "pre"; "code"; "blockquote"; "b"; "i";
      "u"; "s"; "em"; "strong"; "small"; "sub"; "sup"; "mark"; "abbr"; "q";
      "ul"; "ol"; "li"; "dl"; "dt"; "dd"; "a"; "img"; "table"; "caption";
      "thead"; "tbody"; "tfoot"; "tr"; "th"; "td"; "article"; "aside";
      "section"; "header"; "footer"; "nav"; "main"; "figure"; "figcaption";
      "time";
    ]

(* Elements whose content is script, style, a nested document or
   foreign markup: dropped together with everything up to their end
   tag. Any other element off the list loses only its tags. *)
let dropped_with_content =
  word_set
    [
      "script"; "style"; "iframe"; "object"; "applet"; "svg"; "math";
      "template"; "noscript"; "noembed"; "noframes"; "xmp"; "textarea";
      "plaintext";
    ]

let kept_attributes =
  word_set
    [
      "class"; "id"; "title"; "lang"; "dir"; "alt"; "width"; "height";
      "colspan"; "rowspan"; "datetime"; "href"; "src"; "cite";
    ]

let url_attributes = word_set [ "href"; "src"; "cite" ]

(* ---- URL schemes: entities decoded, whitespace and controls removed ---- *)

let is_digit ~hex c =
  (c >= '0' && c <= '9')
  || (hex && ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')))

let rec digits_end s i j ~hex =
  if i < j && is_digit ~hex s.[i] then digits_end s (i + 1) j ~hex else i

let rec alnum_end s i j =
  if i < j && (is_letter s.[i] || is_digit ~hex:false s.[i]) then
    alnum_end s (i + 1) j
  else i

(* Saturates past the last code point, so no digit run overflows. *)
let rec number s i j ~hex acc =
  if i >= j || acc > 0x10FFFF then acc
  else
    let c = lower s.[i] in
    let d = if c <= '9' then Char.code c - 48 else Char.code c - 87 in
    number s (i + 1) j ~hex ((acc * if hex then 16 else 10) + d)

let after_semicolon s e j = if e < j && s.[e] = ';' then e + 1 else e

let allowed_schemes = [| "http"; "https"; "mailto" |]

(* [live] is the bit set of allowed schemes the [k] scheme characters
   read so far still match. *)
let rec narrow live k c b =
  if b = Array.length allowed_schemes then live
  else
    let w = allowed_schemes.(b) in
    let still =
      k < String.length w && c < 128 && lower (Char.chr c) = w.[k]
    in
    narrow (if still then live else live land lnot (1 lsl b)) k c (b + 1)

let rec complete live k b =
  b < Array.length allowed_schemes
  && ((live land (1 lsl b) <> 0 && String.length allowed_schemes.(b) = k)
     || complete live k (b + 1))

(* The value [s.[i, j)] is a relative reference (no ':' before the first
   '/', '?' or '#') or names an allowed scheme. Character references
   are decoded on the way, and bytes up to 0x20 and DEL are skipped
   wherever they sit, so "java&#x09;script&#58;" reads as
   "javascript:". *)
let rec safe_url s i j k live =
  if i >= j then true
  else if s.[i] <> '&' then scheme_char s (i + 1) j k live (Char.code s.[i])
  else if i + 1 < j && s.[i + 1] = '#' then
    let hex = i + 2 < j && lower s.[i + 2] = 'x' in
    let d = if hex then i + 3 else i + 2 in
    let e = digits_end s d j ~hex in
    if e = d then scheme_char s (i + 1) j k live (Char.code '&')
    else
      let v = number s d e ~hex 0 in
      scheme_char s (after_semicolon s e j) j k live
        (if v = 0 || v > 0x10FFFF then 0xFFFD else v)
  else
    (* Of the named references only "&colon;" can make a value read as a
       scheme (matched ignoring case and ';', wider than browsers). Any
       other '&' stays a literal, and a literal '&' ends a scheme for a
       browser too. *)
    let e = alnum_end s (i + 1) j in
    if e - i - 1 = 5 && same_ci s (i + 1) "colon" 0 5 then
      scheme_char s (after_semicolon s e j) j k live (Char.code ':')
    else scheme_char s (i + 1) j k live (Char.code '&')

(* One decoded character [c]; the value continues at [next]. *)
and scheme_char s next j k live c =
  if c <= 0x20 || c = 0x7f then safe_url s next j k live
  else if c = Char.code ':' then complete live k 0
  else if c = Char.code '/' || c = Char.code '?' || c = Char.code '#' then
    true
  else safe_url s next j (k + 1) (narrow live k c 0)

let keep_attribute s a ne vs ve =
  mem kept_attributes s a ne
  && ((not (mem url_attributes s a ne)) || safe_url s vs ve 0 7)

(* ---- the tokenizer ---- *)

(* The output: the source minus the ranges dropped so far. [from] is
   where the next kept range starts. *)
type out = { src : string; mutable buf : Buffer.t option; mutable from : int }

let drop o i j =
  if i < j then begin
    let buf =
      match o.buf with
      | Some b -> b
      | None ->
          let b = Buffer.create (String.length o.src) in
          o.buf <- Some b;
          b
    in
    Buffer.add_substring buf o.src o.from (i - o.from);
    o.from <- j
  end

(* The first index in [i, n) holding [c], or [n]. *)
let rec find_char s n i c =
  if i >= n || s.[i] = c then i else find_char s n (i + 1) c

let rec skip_space s n i = if i < n && is_space s.[i] then skip_space s n (i + 1) else i

(* Before an attribute name, '/' separates like whitespace. *)
let rec skip_separators s n i =
  if i < n && (is_space s.[i] || s.[i] = '/') then skip_separators s n (i + 1)
  else i

let rec name_end s n i =
  if i < n && not (is_space s.[i] || s.[i] = '/' || s.[i] = '>') then
    name_end s n (i + 1)
  else i

let rec attribute_name_end s n i =
  if i < n && not (is_space s.[i] || s.[i] = '/' || s.[i] = '>' || s.[i] = '=')
  then attribute_name_end s n (i + 1)
  else i

let rec unquoted_end s n i =
  if i < n && not (is_space s.[i] || s.[i] = '>') then unquoted_end s n (i + 1)
  else i

(* Walk a tag's attributes from [i] (just past its name) to the '>'
   that closes it: returns that '>''s index, or [n] when the tag is
   unterminated. With [filter], every attribute [keep_attribute]
   refuses is dropped together with the separators before it. *)
let rec attributes o s n i ~filter =
  let a = skip_separators s n i in
  if a >= n || s.[a] = '>' then a
  else
    (* a leading '=' belongs to the name *)
    let ne = attribute_name_end s n (a + 1) in
    let eq = skip_space s n ne in
    if eq < n && s.[eq] = '=' then
      let v = skip_space s n (eq + 1) in
      if v < n && (s.[v] = '"' || s.[v] = '\'') then begin
        let close = find_char s n (v + 1) s.[v] in
        if filter && not (keep_attribute s a ne (v + 1) close) then
          drop o i (min n (close + 1));
        if close >= n then n else attributes o s n (close + 1) ~filter
      end
      else begin
        let ve = unquoted_end s n v in
        if filter && not (keep_attribute s a ne v ve) then drop o i ve;
        attributes o s n ve ~filter
      end
    else begin
      if filter && not (keep_attribute s a ne ne ne) then drop o i ne;
      attributes o s n ne ~filter
    end

(* The first end tag at or after [i] whose name is [s.[ns, ns + len)]:
   its '<', or [n]. *)
let rec end_tag_from s n i ns len =
  let lt = find_char s n i '<' in
  let after = lt + 2 + len in
  if lt >= n then n
  else if
    after < n
    && s.[lt + 1] = '/'
    && same_ci s (lt + 2) s ns len
    && (is_space s.[after] || s.[after] = '/' || s.[after] = '>')
  then lt
  else end_tag_from s n (lt + 1) ns len

(* The index just after the '>' closing the markup at [lt] when it is
   dropped whole: comments, declarations, processing instructions and
   stray "</" run to the first '>'. *)
let drop_through_gt o s n lt =
  let e = min n (find_char s n lt '>' + 1) in
  drop o lt e;
  e

let rec comment_close s n i =
  if i + 2 >= n then n
  else if s.[i] = '-' && s.[i + 1] = '-' && s.[i + 2] = '>' then i
  else comment_close s n (i + 1)

(* A comment survives only if it holds no '<': then wherever a browser
   ends it, nothing inside can parse as a tag. Searching from the
   opening dashes also closes "<!-->" and "<!--->" where browsers do. *)
let comment o s n lt =
  let close = comment_close s n (lt + 2) in
  if close >= n then begin
    drop o lt n;
    n
  end
  else begin
    if lt + 4 < close && find_char s close (lt + 4) '<' < close then
      drop o lt (close + 3);
    close + 3
  end

let doctype o s n lt =
  let gt = find_char s n lt '>' in
  if gt < n && find_char s gt (lt + 1) '<' = gt then gt + 1
  else drop_through_gt o s n lt

(* A tag whose name starts at [ns]; returns the index after it (after
   the matching end tag's '>' for a dropped-with-content element). *)
let tag o s n lt ns ~closing =
  let ne = name_end s n (ns + 1) in
  let keep = mem kept_elements s ns ne in
  let gt = attributes o s n ne ~filter:keep in
  if gt >= n then begin
    (* unterminated: a browser discards the tag at the end of the
       input; a kept element's tag stays, its attributes filtered *)
    if not keep then drop o lt n;
    n
  end
  else if keep then
    if closing || not (ne - ns = 5 && same_ci s ns "title" 0 5) then gt + 1
    else
      (* title is raw text up to its end tag; text holding '<' is
         dropped rather than parsed twice two different ways *)
      let stop = end_tag_from s n (gt + 1) ns 5 in
      if find_char s stop (gt + 1) '<' < stop then drop o (gt + 1) stop;
      stop
  else
    let e =
      if closing || not (mem dropped_with_content s ns ne) then gt + 1
      else
        let close = end_tag_from s n (gt + 1) ns (ne - ns) in
        if close >= n then n
        else
          let gt' = attributes o s n (close + 2 + ne - ns) ~filter:false in
          min n (gt' + 1)
    in
    drop o lt e;
    e

(* The markup starting with '<' at [lt]; returns the index after it. A
   '<' that starts no markup is dropped: kept, it could join whatever
   follows a dropped range into a new tag. *)
let markup o s n lt =
  if lt + 1 >= n then begin
    drop o lt n;
    n
  end
  else
    let c = s.[lt + 1] in
    if is_letter c then tag o s n lt (lt + 1) ~closing:false
    else if c = '/' then
      if lt + 2 < n && is_letter s.[lt + 2] then
        tag o s n lt (lt + 2) ~closing:true
      else drop_through_gt o s n lt
    else if c = '!' then
      if lt + 3 < n && s.[lt + 2] = '-' && s.[lt + 3] = '-' then
        comment o s n lt
      else if lt + 9 <= n && same_ci s (lt + 2) "doctype" 0 7 then
        doctype o s n lt
      else drop_through_gt o s n lt
    else if c = '?' then drop_through_gt o s n lt
    else begin
      drop o lt (lt + 1);
      lt + 1
    end

let rec data o s n i =
  let lt = find_char s n i '<' in
  if lt < n then data o s n (markup o s n lt)

let sanitize s =
  let o = { src = s; buf = None; from = 0 } in
  let n = String.length s in
  data o s n 0;
  match o.buf with
  | None -> s
  | Some buf ->
      Buffer.add_substring buf s o.from (n - o.from);
      Buffer.contents buf
