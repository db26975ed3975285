(** Disk-based hash-join cost model, after Bratbergsengen [Bra84].

    Relations and intermediate results live on disk in pages.  Each join is a
    (Grace-style) hash join:

    - if the inner relation's pages fit in the memory buffer, one read pass
      over inner and outer suffices;
    - otherwise both operands are first partitioned to disk (one extra write
      and read of each), giving the classical factor-3 I/O blowup;
    - the join result is an intermediate relation that must be written out
      (and is read back as the next join's outer operand, charged there).

    The outer operand of the first join is a base relation and is charged its
    read in that join; later outers are the materialized previous results.  A
    small CPU term keeps plans with identical I/O ordered sensibly. *)

type params = {
  page_bytes : int;  (** page size in bytes *)
  tuple_bytes : int;  (** average tuple width *)
  memory_pages : int;  (** buffer pool pages available to a join *)
  io_cost : float;  (** cost of one page I/O *)
  cpu_per_tuple : float;  (** CPU charge per tuple touched *)
}

val default_params : params

val pages : params -> float -> float
(** [pages p card] is the page count of a relation with [card] tuples,
    at least 1. *)

include Cost_model.S
(** The model with [default_params]. *)
