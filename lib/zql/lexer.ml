type token =
  | SELECT
  | FROM
  | WHERE
  | IN
  | AS
  | EXISTS
  | ORDER
  | BY
  | UNION
  | INTERSECT
  | EXCEPT
  | NEWOBJECT
  | DATE
  | TRUE
  | FALSE
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | SEMI
  | STAR
  | ANDAND
  | EQEQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | EOF

let token_name = function
  | SELECT -> "SELECT"
  | FROM -> "FROM"
  | WHERE -> "WHERE"
  | IN -> "IN"
  | AS -> "AS"
  | EXISTS -> "EXISTS"
  | ORDER -> "ORDER"
  | BY -> "BY"
  | UNION -> "UNION"
  | INTERSECT -> "INTERSECT"
  | EXCEPT -> "EXCEPT"
  | NEWOBJECT -> "Newobject"
  | DATE -> "date"
  | TRUE -> "true"
  | FALSE -> "false"
  | IDENT s -> Printf.sprintf "identifier %s" s
  | INT i -> string_of_int i
  | FLOAT f -> string_of_float f
  | STRING s -> Printf.sprintf "%S" s
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | DOT -> "."
  | SEMI -> ";"
  | STAR -> "*"
  | ANDAND -> "&&"
  | EQEQ -> "=="
  | NEQ -> "!="
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | EOF -> "end of input"

let keyword s =
  match String.lowercase_ascii s with
  | "select" -> Some SELECT
  | "from" -> Some FROM
  | "where" -> Some WHERE
  | "in" -> Some IN
  | "as" -> Some AS
  | "exists" -> Some EXISTS
  | "order" -> Some ORDER
  | "by" -> Some BY
  | "union" -> Some UNION
  | "intersect" -> Some INTERSECT
  | "except" -> Some EXCEPT
  | "newobject" -> Some NEWOBJECT
  | "date" -> Some DATE
  | "true" -> Some TRUE
  | "false" -> Some FALSE
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let tokenize_pos input =
  let n = String.length input in
  let exception Lex_error of string in
  let pos = ref 0 in
  (* The 1-based line of [!pos] and the offset its line starts at, kept
     as [advance] passes each newline. *)
  let line = ref 1 and bol = ref 0 in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () =
    if input.[!pos] = '\n' then begin
      incr line;
      bol := !pos + 1
    end;
    incr pos
  in
  let loc_at off = Loc.make ~line:!line ~col:(off - !bol + 1) in
  (* Every error offset lies on the current line. *)
  let error_at off fmt =
    Format.kasprintf
      (fun m -> raise (Lex_error (Printf.sprintf "%s: %s" (Loc.to_string (loc_at off)) m)))
      fmt
  in
  let error fmt = error_at !pos fmt in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | Some '-' when !pos + 1 < n && input.[!pos + 1] = '-' ->
      (* line comment *)
      while !pos < n && input.[!pos] <> '\n' do
        advance ()
      done;
      skip_ws ()
    | Some _ | None -> ()
  in
  let lex_ident () =
    let start = !pos in
    while !pos < n && is_ident_char input.[!pos] do
      advance ()
    done;
    let s = String.sub input start (!pos - start) in
    match keyword s with Some t -> t | None -> IDENT s
  in
  let lex_number () =
    let start = !pos in
    while !pos < n && is_digit input.[!pos] do
      advance ()
    done;
    (* A '.' only continues the number if followed by a digit; otherwise
       it is the path separator (so [3.x] never arises: paths start with
       identifiers). *)
    if !pos + 1 < n && input.[!pos] = '.' && is_digit input.[!pos + 1] then begin
      advance ();
      while !pos < n && is_digit input.[!pos] do
        advance ()
      done;
      FLOAT (float_of_string (String.sub input start (!pos - start)))
    end
    else
      let digits = String.sub input start (!pos - start) in
      match int_of_string digits with
      | i -> INT i
      | exception Failure _ -> error_at start "integer literal %s is out of range" digits
  in
  let lex_string () =
    advance ();
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> error "unterminated string literal"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
        | None -> error "unterminated escape")
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    STRING (Buffer.contents buf)
  in
  let next_token () =
    skip_ws ();
    let loc = loc_at !pos in
    let t =
      match peek () with
    | None -> EOF
    | Some c when is_ident_start c -> lex_ident ()
    | Some c when is_digit c -> lex_number ()
    | Some '"' -> lex_string ()
    | Some '(' ->
      advance ();
      LPAREN
    | Some ')' ->
      advance ();
      RPAREN
    | Some ',' ->
      advance ();
      COMMA
    | Some '.' ->
      advance ();
      DOT
    | Some ';' ->
      advance ();
      SEMI
    | Some '*' ->
      advance ();
      STAR
    | Some '&' ->
      advance ();
      if peek () = Some '&' then begin
        advance ();
        ANDAND
      end
      else error_at (!pos - 1) "expected &&"
    | Some '=' ->
      advance ();
      if peek () = Some '=' then begin
        advance ();
        EQEQ
      end
      else error_at (!pos - 1) "expected == (ZQL uses == for equality)"
    | Some '!' ->
      advance ();
      if peek () = Some '=' then begin
        advance ();
        NEQ
      end
      else error_at (!pos - 1) "expected !="
    | Some '<' ->
      advance ();
      if peek () = Some '=' then begin
        advance ();
        LE
      end
      else LT
    | Some '>' ->
      advance ();
      if peek () = Some '=' then begin
        advance ();
        GE
      end
      else GT
      | Some c -> error "unexpected character %C" c
    in
    (t, loc)
  in
  match
    let rec all acc =
      match next_token () with
      | (EOF, _) as t -> List.rev (t :: acc)
      | t -> all (t :: acc)
    in
    all []
  with
  | tokens -> Ok tokens
  | exception Lex_error msg -> Error msg

let tokenize input = Result.map (List.map fst) (tokenize_pos input)
