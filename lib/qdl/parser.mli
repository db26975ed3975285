(** Parser for the query description language.

    Grammar (semicolon-terminated statements, [#] comments):

    {v
    query      ::= statement*
    statement  ::= relation | join
    relation   ::= "relation" IDENT "cardinality" NUMBER
                   [ "distinct" NUMBER ] ( "select" NUMBER )* ";"
    join       ::= "join" IDENT IDENT [ "selectivity" NUMBER ] ";"
    v}

    [distinct] is the distinct-value fraction in (0, 1], defaulting to 0.1.
    A join without an explicit selectivity gets the standard
    [1 / max (D_u, D_v)] derived from the two relations' distinct counts.
    Relations are numbered in declaration order; joins may reference only
    declared relations.

    Example:

    {v
    relation customer cardinality 10000 distinct 0.05 select 0.34;
    relation orders   cardinality 200000 distinct 0.1;
    join customer orders;
    v} *)

exception Error of { line : int; message : string }

val parse : string -> Ljqo_catalog.Query.t
(** Raises [Error] on syntax or semantic problems (unknown relation,
    duplicate relation names, out-of-range statistics, no relations). *)

val parse_file : string -> (Ljqo_catalog.Query.t, string) result
(** Read and {!parse} a file.  The error is ["PATH: reason"] when the file
    cannot be read and ["PATH:LINE: message"] when it does not parse. *)
