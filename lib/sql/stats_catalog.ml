type column_stats = {
  distinct : int;
  range : (float * float) option;
  histogram : Ljqo_catalog.Histogram.t option;
}

type table_stats = { rows : int; columns : (string * column_stats) list }

type t = (string * table_stats) list (* keys lowercased *)

let empty = []

let key s = String.lowercase_ascii s

let find_table t name = List.assoc_opt (key name) t

let add_table t ~name ~rows =
  if rows < 1 then invalid_arg "Stats_catalog.add_table: rows < 1";
  if find_table t name <> None then
    invalid_arg ("Stats_catalog.add_table: duplicate table " ^ name);
  (key name, { rows; columns = [] }) :: t

let update_table t name f =
  List.map (fun (n, ts) -> if n = key name then (n, f ts) else (n, ts)) t

let find_column t ~table ~column =
  match find_table t table with
  | None -> None
  | Some ts -> List.assoc_opt (key column) ts.columns

let add_column t ~table ~column ?range ~distinct () =
  if distinct < 1 then invalid_arg "Stats_catalog.add_column: distinct < 1";
  (match range with
  | Some (lo, hi) when lo >= hi -> invalid_arg "Stats_catalog.add_column: empty range"
  | _ -> ());
  match find_table t table with
  | None -> invalid_arg ("Stats_catalog.add_column: unknown table " ^ table)
  | Some ts ->
    if List.mem_assoc (key column) ts.columns then
      invalid_arg ("Stats_catalog.add_column: duplicate column " ^ column);
    update_table t table (fun ts ->
        {
          ts with
          columns = ts.columns @ [ (key column, { distinct; range; histogram = None }) ];
        })

let add_histogram t ~table ~column histogram =
  match find_column t ~table ~column with
  | None ->
    invalid_arg
      (Printf.sprintf "Stats_catalog.add_histogram: unknown column %s.%s" table column)
  | Some _ ->
    update_table t table (fun ts ->
        {
          ts with
          columns =
            List.map
              (fun (c, cs) ->
                if c = key column then (c, { cs with histogram = Some histogram })
                else (c, cs))
              ts.columns;
        })

(* --- text format -------------------------------------------------------- *)

exception Parse_error of { line : int; message : string }

(* The format is line-regular enough for a hand lexer over the QDL one to
   be overkill: split into ';'-terminated statements, track lines. *)
type stmt = { line : int; words : string list }

let statements input =
  let stmts = ref [] in
  let buf = Buffer.create 64 in
  let line = ref 1 in
  let stmt_line = ref 1 in
  let flush_stmt () =
    let text = Buffer.contents buf in
    Buffer.clear buf;
    let words =
      String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) text)
      |> List.filter (fun w -> w <> "")
    in
    if words <> [] then stmts := { line = !stmt_line; words } :: !stmts;
    stmt_line := !line
  in
  let in_comment = ref false in
  String.iter
    (fun c ->
      match c with
      | '#' -> in_comment := true
      | '\n' ->
        in_comment := false;
        incr line;
        Buffer.add_char buf ' '
      | ';' when not !in_comment -> flush_stmt ()
      | c when not !in_comment -> Buffer.add_char buf c
      | _ -> ())
    input;
  (* trailing text without ';' *)
  flush_stmt ();
  List.rev !stmts

let fail line message = raise (Parse_error { line; message })

let parse_number line what w =
  match float_of_string_opt w with
  | Some f -> f
  | None -> fail line (Printf.sprintf "expected %s but found %S" what w)

let parse_int line what w =
  match int_of_string_opt w with
  | Some i -> i
  | None -> fail line (Printf.sprintf "expected %s but found %S" what w)

let split_qualified line w =
  match String.split_on_char '.' w with
  | [ table; column ] when table <> "" && column <> "" -> (table, column)
  | _ -> fail line (Printf.sprintf "expected table.column but found %S" w)

let parse input =
  let catalog = ref empty in
  List.iter
    (fun { line; words } ->
      let invalid f = try f () with Invalid_argument m -> fail line m in
      match words with
      | [ "table"; name; "rows"; rows ] ->
        let rows = parse_int line "a row count" rows in
        invalid (fun () -> catalog := add_table !catalog ~name ~rows)
      | "column" :: qualified :: "distinct" :: distinct :: rest ->
        let table, column = split_qualified line qualified in
        let distinct = parse_int line "a distinct count" distinct in
        let range =
          match rest with
          | [] -> None
          | [ "range"; lo; hi ] ->
            Some (parse_number line "a range bound" lo, parse_number line "a range bound" hi)
          | _ -> fail line "malformed column statement"
        in
        invalid (fun () ->
            catalog := add_column !catalog ~table ~column ?range ~distinct ())
      | "histogram" :: qualified :: lo :: hi :: "counts" :: counts ->
        let table, column = split_qualified line qualified in
        let lo = parse_number line "a range bound" lo in
        let hi = parse_number line "a range bound" hi in
        if counts = [] then fail line "histogram needs at least one count";
        let counts =
          Array.of_list (List.map (parse_int line "a bucket count") counts)
        in
        let h =
          try Ljqo_catalog.Histogram.of_counts ~lo ~hi ~counts
          with Invalid_argument m -> fail line m
        in
        invalid (fun () -> catalog := add_histogram !catalog ~table ~column h)
      | w :: _ -> fail line (Printf.sprintf "unknown statement starting with %S" w)
      | [] -> ())
    (statements input);
  !catalog

let parse_file path =
  let ic = open_in path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse contents
