exception Error of { line : int; message : string }

let fail lx message = raise (Error { line = Sql_lexer.line lx; message })

let expect lx expected =
  let tok = Sql_lexer.next lx in
  if tok <> expected then
    fail lx
      (Printf.sprintf "expected %s but found %s"
         (Sql_lexer.token_to_string expected)
         (Sql_lexer.token_to_string tok))

let expect_ident lx what =
  match Sql_lexer.next lx with
  | Sql_lexer.Ident s -> s
  | tok ->
    fail lx
      (Printf.sprintf "expected %s but found %s" what (Sql_lexer.token_to_string tok))

(* column ::= IDENT "." IDENT *)
let parse_column lx first =
  expect lx Sql_lexer.Dot;
  let column = expect_ident lx "a column name" in
  Ast.Column { table = first; column }

let parse_operand lx =
  match Sql_lexer.next lx with
  | Sql_lexer.Number f -> Ast.Const f
  | Sql_lexer.Ident table -> parse_column lx table
  | tok ->
    fail lx
      (Printf.sprintf "expected a column or a constant but found %s"
         (Sql_lexer.token_to_string tok))

let parse_predicate lx =
  let left = parse_operand lx in
  let op =
    match Sql_lexer.next lx with
    | Sql_lexer.Cmp c -> c
    | tok ->
      fail lx
        (Printf.sprintf "expected a comparison but found %s"
           (Sql_lexer.token_to_string tok))
  in
  let right = parse_operand lx in
  { Ast.left; op; right }

let parse_projection lx =
  (* "*" or a column list; both are discarded. *)
  match Sql_lexer.peek lx with
  | Sql_lexer.Star -> ignore (Sql_lexer.next lx)
  | _ ->
    let rec columns () =
      let first = expect_ident lx "a column reference" in
      ignore (parse_column lx first);
      match Sql_lexer.peek lx with
      | Sql_lexer.Comma ->
        ignore (Sql_lexer.next lx);
        columns ()
      | _ -> ()
    in
    columns ()

let parse_from_item lx =
  let table = expect_ident lx "a table name" in
  match Sql_lexer.peek lx with
  | Sql_lexer.Ident alias ->
    ignore (Sql_lexer.next lx);
    { Ast.table; alias = Some alias }
  | _ -> { Ast.table; alias = None }

let parse input =
  let lx = Sql_lexer.of_string input in
  try
    expect lx Sql_lexer.Select;
    parse_projection lx;
    expect lx Sql_lexer.From;
    let rec from_items acc =
      let item = parse_from_item lx in
      match Sql_lexer.peek lx with
      | Sql_lexer.Comma ->
        ignore (Sql_lexer.next lx);
        from_items (item :: acc)
      | _ -> List.rev (item :: acc)
    in
    let from = from_items [] in
    let where =
      match Sql_lexer.peek lx with
      | Sql_lexer.Where ->
        ignore (Sql_lexer.next lx);
        let rec predicates acc =
          let p = parse_predicate lx in
          match Sql_lexer.peek lx with
          | Sql_lexer.And ->
            ignore (Sql_lexer.next lx);
            predicates (p :: acc)
          | _ -> List.rev (p :: acc)
        in
        predicates []
      | _ -> []
    in
    (match Sql_lexer.peek lx with
    | Sql_lexer.Semicolon -> ignore (Sql_lexer.next lx)
    | _ -> ());
    (match Sql_lexer.next lx with
    | Sql_lexer.Eof -> ()
    | tok ->
      fail lx
        (Printf.sprintf "unexpected %s after the query"
           (Sql_lexer.token_to_string tok)));
    (* duplicate binders are ambiguous *)
    let binders = List.map Ast.binder from in
    let sorted = List.sort compare binders in
    let rec dup = function
      | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
      | _ -> None
    in
    (match dup sorted with
    | Some name -> fail lx (Printf.sprintf "duplicate table binding %S" name)
    | None -> ());
    { Ast.from; where }
  with Sql_lexer.Error { line; message } -> raise (Error { line; message })

let parse_file path =
  Result.bind (Ljqo_obs.Sealed.read path) (fun contents ->
      match parse contents with
      | ast -> Ok ast
      | exception Error { line; message } ->
        Result.error (Printf.sprintf "%s:%d: %s" path line message))
