(** Cost-model interface.

    A cost model prices one join step of an outer linear join tree: the outer
    operand is the running intermediate result, the inner operand is always a
    base relation (the paper's plan-space restriction).  The paper validates
    its findings under two models — a main-memory model [Swa89a] and a
    disk-based model [Bra84] — and this interface is what both implement, so
    every optimizer component is parametric in the model. *)

type join_input = {
  mutable outer_card : float;  (** cardinality of the outer (intermediate) operand *)
  mutable inner_card : float;  (** cardinality of the inner base relation, [N_j] *)
  mutable inner_distinct : float;  (** distinct join values in the inner, [D_j] *)
  mutable output_card : float;  (** estimated cardinality of the join result *)
  mutable cost : float;  (** the step's cost, written by {!S.join_cost} *)
}
(** One join step's inputs and its result.  All fields are floats, so OCaml
    stores the record flat: a caller that owns one record and refills it for
    every step crosses the first-class module boundary without boxing a
    float ({!Plan_cost.Stepper} does this). *)

module type S = sig
  val name : string

  val join_cost : is_first:bool -> is_cross:bool -> join_input -> unit
  (** Price one join and write the cost to [input.cost]; the other fields
      are inputs, left as the caller set them.  [is_first] is true when the
      outer operand is itself a base relation (the plan's first join); no
      model in this library reads it, since a base outer costs the same as
      a materialized one under both of the paper's models.  [is_cross] is
      true when no join predicate applies (a cross product).  The cost must
      be nonnegative and monotone in each cardinality field. *)

  val scan_cost : card:float -> float
  (** Unavoidable cost of touching a base relation of this size at least
      once; used by admissible lower bounds. *)

  val output_cost : card:float -> float
  (** Unavoidable cost of producing a final result of this size; used by
      admissible lower bounds. *)
end

type t = (module S)
