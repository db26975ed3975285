open Ljqo_catalog

exception Error of { line : int; message : string }

type rel_decl = {
  name : string;
  cardinality : int;
  distinct : float;
  selections : float list;  (* declaration order *)
}

type join_decl = { left : string; right : string; selectivity : float option; line : int }

let fail lx message = raise (Error { line = Lexer.line lx; message })

let expect lx expected =
  let tok = Lexer.next lx in
  if tok <> expected then
    fail lx
      (Printf.sprintf "expected %s but found %s" (Token.to_string expected)
         (Token.to_string tok))

let expect_ident lx what =
  match Lexer.next lx with
  | Token.Ident s -> s
  | tok ->
    fail lx (Printf.sprintf "expected %s but found %s" what (Token.to_string tok))

let expect_number lx what =
  match Lexer.next lx with
  | Token.Number f -> f
  | tok ->
    fail lx (Printf.sprintf "expected %s but found %s" what (Token.to_string tok))

let parse_relation lx =
  let name = expect_ident lx "a relation name" in
  expect lx Token.Kw_cardinality;
  let card = expect_number lx "a cardinality" in
  if card < 1.0 || Float.rem card 1.0 <> 0.0 then
    fail lx "cardinality must be a positive integer";
  let distinct = ref 0.1 in
  let selections = ref [] in
  let rec options () =
    match Lexer.peek lx with
    | Token.Kw_distinct ->
      ignore (Lexer.next lx);
      let d = expect_number lx "a distinct-value fraction" in
      if d <= 0.0 || d > 1.0 then fail lx "distinct fraction must be in (0,1]";
      distinct := d;
      options ()
    | Token.Kw_select ->
      ignore (Lexer.next lx);
      let s = expect_number lx "a selection selectivity" in
      if s <= 0.0 || s > 1.0 then fail lx "selection selectivity must be in (0,1]";
      selections := s :: !selections;
      options ()
    | _ -> ()
  in
  options ();
  expect lx Token.Semicolon;
  {
    name;
    cardinality = int_of_float card;
    distinct = !distinct;
    selections = List.rev !selections;
  }

let parse_join lx =
  let left = expect_ident lx "a relation name" in
  let right = expect_ident lx "a relation name" in
  let line = Lexer.line lx in
  let selectivity =
    match Lexer.peek lx with
    | Token.Kw_selectivity ->
      ignore (Lexer.next lx);
      let s = expect_number lx "a join selectivity" in
      if s <= 0.0 || s > 1.0 then fail lx "join selectivity must be in (0,1]";
      Some s
    | _ -> None
  in
  expect lx Token.Semicolon;
  { left; right; selectivity; line }

let parse_decls input =
  let lx = Lexer.of_string input in
  let rels = ref [] in
  let joins = ref [] in
  let rec statements () =
    match Lexer.next lx with
    | Token.Eof -> ()
    | Token.Kw_relation ->
      rels := parse_relation lx :: !rels;
      statements ()
    | Token.Kw_join ->
      joins := parse_join lx :: !joins;
      statements ()
    | tok ->
      fail lx
        (Printf.sprintf "expected 'relation' or 'join' but found %s"
           (Token.to_string tok))
  in
  (try statements ()
   with Lexer.Error { line; message } -> raise (Error { line; message }));
  (List.rev !rels, List.rev !joins)

let parse input =
  let rels, joins = parse_decls input in
  if rels = [] then raise (Error { line = 1; message = "query declares no relations" });
  let index = Hashtbl.create 16 in
  List.iteri
    (fun i (r : rel_decl) ->
      if Hashtbl.mem index r.name then
        raise (Error { line = 1; message = "duplicate relation name " ^ r.name });
      Hashtbl.add index r.name i)
    rels;
  let relations =
    Array.of_list
      (List.mapi
         (fun i (r : rel_decl) ->
           Relation.make ~id:i ~name:r.name ~base_cardinality:r.cardinality
             ~selections:r.selections ~distinct_fraction:r.distinct ())
         rels)
  in
  let resolve (j : join_decl) name =
    match Hashtbl.find_opt index name with
    | Some i -> i
    | None -> raise (Error { line = j.line; message = "unknown relation " ^ name })
  in
  let edges =
    List.map
      (fun (j : join_decl) ->
        let u = resolve j j.left and v = resolve j j.right in
        if u = v then
          raise (Error { line = j.line; message = "relation joined with itself" });
        let selectivity =
          match j.selectivity with
          | Some s -> s
          | None ->
            1.0
            /. Float.max
                 (Relation.distinct_values relations.(u))
                 (Relation.distinct_values relations.(v))
        in
        { Join_graph.u; v; selectivity })
      joins
  in
  Query.make ~relations ~graph:(Join_graph.make ~n:(Array.length relations) edges)

let parse_file path =
  Result.bind (Ljqo_obs.Sealed.read path) (fun contents ->
      match parse contents with
      | q -> Ok q
      | exception Error { line; message } ->
        Result.error (Printf.sprintf "%s:%d: %s" path line message))
