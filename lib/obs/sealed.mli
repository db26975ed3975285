(** Sealed text files: the one codec behind the experiment checkpoint and
    the selectivity calibration.

    A sealed line is a payload of space-separated tokens, one space, the
    lowercase MD5 hex of the payload, and a newline.  An integer token is a
    nonnegative decimal exactly as [%d] prints it (at most 18 digits); a
    float token is its IEEE-754 bit pattern exactly as [%Lx] prints
    [Int64.bits_of_float] (1 to 16 lowercase hex digits).  Nothing else
    [int_of_string] would accept — a [0x]/[0o]/[0b] prefix, a sign, a
    leading zero, an underscore — parses, so a garbled token never becomes a
    plausible value, the seal catches a digit mapped to another digit, and
    every value reloads bit for bit.

    A document is an exact magic line (line 1), then sealed lines, and ends
    in a newline; it loads whole or not at all, with an error naming the
    line.  The checkpoint is a journal of sealed lines instead, skipping a
    torn or corrupt line on its own. *)

(** {1 Tokens} *)

val int : int -> string

val float : float -> string

val int_of_token : string -> int option

val float_of_token : string -> float option

val floats : string list -> float list option
(** Every token as a float, or [None] if any one is refused. *)

(** {1 Lines} *)

val seal : string list -> string
(** The sealed line of a payload's tokens, newline included. *)

val unseal : string -> string list option
(** The payload tokens of a line without its newline; [None] on a bad or
    missing seal. *)

(** {1 Documents} *)

val to_string : magic:string -> string list list -> string

val of_string : magic:string -> string -> (string list list, string) result
(** The payload tokens of lines 2, 3, ... *)

val error : line:int -> ('a, unit, string, ('b, string) result) format4 -> 'a
(** [Error "line N: ..."], a schema's refusal of a line. *)

val entries :
  first:int ->
  noun:string ->
  (string list -> (string * 'a) option) ->
  string list list ->
  ((string * 'a) list, string) result
(** Decode named lines, numbered from [first]; refuses the first that the
    decoder rejects or whose name an earlier line has. *)

(** {1 Files} *)

val read : string -> (string, string) result
(** A file's bytes, or an [Error] naming the path when it cannot be opened
    or read (a directory, say). *)

val write : path:string -> string -> unit
(** Raises [Sys_error]. *)

val load : (string -> ('a, string) result) -> path:string -> ('a, string) result
(** {!read}, then decode; a decoding error is prefixed with the path. *)
