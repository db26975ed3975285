(** Parser for the SQL subset.

    {v
    query      ::= "SELECT" projection "FROM" from_item ("," from_item)*
                   [ "WHERE" predicate ("AND" predicate)* ] [";"]
    projection ::= "*" | column ("," column)*
    from_item  ::= IDENT [ IDENT ]          -- table with optional alias
    predicate  ::= operand cmp operand
    operand    ::= column | NUMBER
    column     ::= IDENT "." IDENT          -- alias.column (qualification
                                               is required)
    cmp        ::= "=" | "<>" | "!=" | "<" | "<=" | ">" | ">="
    v}

    The projection list is parsed and discarded.  [OR], subqueries, string
    literals and unqualified column references are not supported and fail
    with a located error. *)

exception Error of { line : int; message : string }

val parse : string -> Ast.select

val parse_file : string -> (Ast.select, string) result
(** Read and {!parse} a file.  The error is ["PATH: reason"] when the file
    cannot be read and ["PATH:LINE: message"] when it does not parse. *)
