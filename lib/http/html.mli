(** HTML utilities and the client-side-script perimeter filter.

    §3.5 ("Client-side support"): W5 lets developers upload arbitrary
    HTML, which exacerbates cross-site scripting. The blunt instrument
    the paper proposes is to "disable JavaScript entirely by filtering
    it out at the security perimeter"; per-user relaxation in the
    MashupOS style is layered on top by the platform's policy
    (see {!W5_platform.Policy}). This module is the filter itself. *)

val escape : string -> string
(** Escape ampersand, angle brackets and both quote characters for
    safe inclusion in HTML text or attributes. *)

val page : title:string -> string -> string
(** A minimal, well-formed HTML page around a body fragment. *)

val element : string -> ?attrs:(string * string) list -> string -> string
(** [element "div" ~attrs:["class","x"] body] — attribute values are
    escaped; the body is trusted markup and included verbatim. *)

val text : string -> string
(** Escaped text node. *)

val link : href:string -> string -> string
val ul : string list -> string

val sanitize : string -> string
(** The perimeter script filter: one pass over the markup, tokenized
    the way a browser tokenizes it, keeping only an allowlist.

    Dropped, each as a whole token:
    - [script], [style], [iframe], [object], [applet], [svg], [math],
      [template], [noscript], [noembed], [noframes], [xmp], [textarea]
      and [plaintext] elements, together with their content up to the
      matching end tag (or to the end of the input);
    - the tags of every other element outside the allowlist ([embed],
      [form], [meta], [base], [link], …); their content stays and is
      filtered in turn;
    - every attribute outside the allowlist ([class], [id], [title],
      [lang], [dir], [alt], [width], [height], [colspan], [rowspan],
      [datetime], [href], [src], [cite]), so all [on*] handlers
      whatever whitespace precedes their '=', [style] and [srcdoc];
    - [href], [src] and [cite] values whose scheme is not http, https
      or mailto, read after decoding character references and removing
      whitespace and control characters anywhere in the value
      ("java&#x09;script&#58;" reads as "javascript:"); a value with no
      ':' before its first '/', '?' or '#' is relative and kept;
    - comments and [<!doctype …>] declarations that contain a '<',
      [<?…>], [<!…>] and stray [</…>] markup, and a '<' that starts no
      markup (kept, it could join the text around a dropped range into
      a new tag);
    - [title] text containing a '<';
    - an unterminated tag outside the allowlist, to the end of the
      input.

    The result is the input minus the dropped byte ranges. When nothing
    is dropped the input string itself is returned, uncopied
    ([sanitize s == s]): every page [Html] and the shipped apps build
    takes this path. Since whole tokens go, what is left tokenizes the
    same way again, so [sanitize (sanitize s) = sanitize s]. The scan
    allocates nothing per byte. *)
