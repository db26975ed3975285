open Ljqo_qdl
open Ljqo_catalog

let sample =
  {|
  # comment line
  relation customer cardinality 10000 distinct 0.05 select 0.34;
  relation orders   cardinality 200000;          # default distinct 0.1
  join customer orders selectivity 0.0001;
  |}

(* --- lexer ------------------------------------------------------------- *)

let test_tokenize () =
  let tokens = Lexer.tokenize "relation r1 cardinality 100;" in
  Alcotest.(check int) "token count" 6 (List.length tokens);
  match tokens with
  | [ Token.Kw_relation; Token.Ident "r1"; Token.Kw_cardinality; Token.Number n;
      Token.Semicolon; Token.Eof ] ->
    Helpers.check_approx "number" 100.0 n
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_numbers () =
  (match Lexer.tokenize "0.25 1e3 2.5E-2" with
  | [ Token.Number a; Token.Number b; Token.Number c; Token.Eof ] ->
    Helpers.check_approx "decimal" 0.25 a;
    Helpers.check_approx "exponent" 1000.0 b;
    Helpers.check_approx "negative exponent" 0.025 c
  | _ -> Alcotest.fail "number lexing failed");
  match Lexer.tokenize "1e" with
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.fail "malformed exponent accepted"

let test_lexer_comments_and_lines () =
  let lx = Lexer.of_string "# c1\n# c2\nrelation" in
  Alcotest.(check bool) "keyword after comments" true (Lexer.next lx = Token.Kw_relation);
  Alcotest.(check int) "line tracking" 3 (Lexer.line lx)

let test_lexer_peek () =
  let lx = Lexer.of_string "join x" in
  Alcotest.(check bool) "peek" true (Lexer.peek lx = Token.Kw_join);
  Alcotest.(check bool) "peek stable" true (Lexer.peek lx = Token.Kw_join);
  Alcotest.(check bool) "next consumes" true (Lexer.next lx = Token.Kw_join);
  Alcotest.(check bool) "then ident" true (Lexer.next lx = Token.Ident "x");
  Alcotest.(check bool) "eof forever" true (Lexer.next lx = Token.Eof && Lexer.next lx = Token.Eof)

let test_lexer_bad_char () =
  match Lexer.tokenize "relation @" with
  | exception Lexer.Error { message; _ } ->
    Alcotest.(check bool) "mentions the char" true
      (String.length message > 0)
  | _ -> Alcotest.fail "bad character accepted"

(* --- parser ------------------------------------------------------------ *)

let test_parse_sample () =
  let q = Parser.parse sample in
  Alcotest.(check int) "two relations" 2 (Query.n_relations q);
  Alcotest.(check int) "one join" 1 (Query.n_joins q);
  let c = Query.relation q 0 in
  Alcotest.(check string) "name" "customer" c.Relation.name;
  Alcotest.(check int) "cardinality" 10000 c.Relation.base_cardinality;
  Alcotest.(check (list (float 1e-9))) "selections" [ 0.34 ]
    c.Relation.selection_selectivities;
  Helpers.check_approx "explicit selectivity" 0.0001
    (Join_graph.selectivity_exn (Query.graph q) 0 1)

let test_default_distinct () =
  let q = Parser.parse "relation r cardinality 100;" in
  Helpers.check_approx "default 0.1 fraction" 10.0 (Query.distinct_values q 0)

let test_derived_selectivity () =
  let q =
    Parser.parse
      {|relation a cardinality 100 distinct 0.5;
        relation b cardinality 1000 distinct 0.2;
        join a b;|}
  in
  (* 1 / max(50, 200) *)
  Helpers.check_approx "derived J" (1.0 /. 200.0)
    (Join_graph.selectivity_exn (Query.graph q) 0 1)

let expect_parse_error input check_msg =
  match Parser.parse input with
  | exception Parser.Error { message; _ } ->
    if not (check_msg message) then Alcotest.failf "unexpected message: %s" message
  | _ -> Alcotest.failf "accepted: %s" input

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_parse_errors () =
  expect_parse_error "" (fun m -> contains m "no relations");
  expect_parse_error "relation a cardinality 10; join a b;" (fun m ->
      contains m "unknown relation");
  expect_parse_error "relation a cardinality 10; join a a;" (fun m ->
      contains m "itself");
  expect_parse_error "relation a cardinality 10; relation a cardinality 5;"
    (fun m -> contains m "duplicate");
  expect_parse_error "relation a cardinality 0;" (fun m -> contains m "cardinality");
  expect_parse_error "relation a cardinality 10 distinct 2;" (fun m ->
      contains m "distinct");
  expect_parse_error "relation a;" (fun m -> contains m "cardinality");
  expect_parse_error "banana;" (fun m -> contains m "relation")

let test_error_line_numbers () =
  match Parser.parse "relation a cardinality 10;\nrelation b cardinality;\n" with
  | exception Parser.Error { line; _ } -> Alcotest.(check int) "line 2" 2 line
  | _ -> Alcotest.fail "accepted"

let test_relation_names () =
  let q = Parser.parse sample in
  Alcotest.(check (list string)) "names in order" [ "customer"; "orders" ]
    (List.init (Query.n_relations q) (fun i ->
         (Query.relation q i).Ljqo_catalog.Relation.name))

(* --- printer round trip ------------------------------------------------ *)

let queries_equivalent q1 q2 =
  Query.n_relations q1 = Query.n_relations q2
  && Query.n_joins q1 = Query.n_joins q2
  && List.for_all
       (fun i ->
         Helpers.approx (Query.cardinality q1 i) (Query.cardinality q2 i)
         && Helpers.approx (Query.distinct_values q1 i) (Query.distinct_values q2 i))
       (List.init (Query.n_relations q1) Fun.id)
  && List.for_all2
       (fun (e1 : Join_graph.edge) (e2 : Join_graph.edge) ->
         e1.u = e2.u && e1.v = e2.v && Helpers.approx e1.selectivity e2.selectivity)
       (Join_graph.edges (Query.graph q1))
       (Join_graph.edges (Query.graph q2))

let test_roundtrip_sample () =
  let q = Parser.parse sample in
  let q' = Parser.parse (Printer.to_string q) in
  Alcotest.(check bool) "round trip" true (queries_equivalent q q')

let prop_roundtrip_generated =
  Helpers.qcheck_case ~count:40 ~name:"printer/parser round-trips generated queries"
    (fun seed ->
      let q = Helpers.random_query ~n_joins:8 seed in
      let q' = Parser.parse (Printer.to_string q) in
      queries_equivalent q q')
    QCheck.small_int

let suite =
  [
    Alcotest.test_case "tokenize" `Quick test_tokenize;
    Alcotest.test_case "number lexing" `Quick test_lexer_numbers;
    Alcotest.test_case "comments and lines" `Quick test_lexer_comments_and_lines;
    Alcotest.test_case "peek" `Quick test_lexer_peek;
    Alcotest.test_case "bad character" `Quick test_lexer_bad_char;
    Alcotest.test_case "parse sample" `Quick test_parse_sample;
    Alcotest.test_case "default distinct" `Quick test_default_distinct;
    Alcotest.test_case "derived selectivity" `Quick test_derived_selectivity;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "error line numbers" `Quick test_error_line_numbers;
    Alcotest.test_case "relation names" `Quick test_relation_names;
    Alcotest.test_case "roundtrip sample" `Quick test_roundtrip_sample;
    prop_roundtrip_generated;
  ]
