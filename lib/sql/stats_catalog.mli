(** Table and column statistics for the SQL front end.

    A catalog maps table names (case-insensitive) to row counts and
    per-column statistics: distinct count, optional value range, optional
    histogram.  It can be built programmatically or parsed from the text
    format below ([#] comments, statements end with [;]):

    {v
    table customer rows 10000;
    column customer.id distinct 10000;
    column customer.age distinct 73 range 18 95;
    histogram customer.age 18 95 counts 120 340 280 160 70 30;
    v}

    A [histogram] line partitions the given range into equal-width buckets
    with the given counts; it requires the column to be declared first. *)

type column_stats = {
  distinct : int;
  range : (float * float) option;
  histogram : Ljqo_catalog.Histogram.t option;
}

type table_stats = { rows : int; columns : (string * column_stats) list }

type t

val empty : t

val add_table : t -> name:string -> rows:int -> t
(** Raises [Invalid_argument] on duplicates or [rows < 1]. *)

val add_column : t -> table:string -> column:string -> ?range:float * float ->
  distinct:int -> unit -> t
(** Raises [Invalid_argument] on unknown table, duplicate column, or
    [distinct < 1]. *)

val add_histogram : t -> table:string -> column:string -> Ljqo_catalog.Histogram.t -> t

val find_table : t -> string -> table_stats option
(** Case-insensitive. *)

val find_column : t -> table:string -> column:string -> column_stats option

exception Parse_error of { line : int; message : string }

val parse : string -> t

val parse_file : string -> t
