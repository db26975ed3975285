type join_input = {
  mutable outer_card : float;
  mutable inner_card : float;
  mutable inner_distinct : float;
  mutable output_card : float;
  mutable cost : float;
}

module type S = sig
  val name : string
  val join_cost : is_first:bool -> is_cross:bool -> join_input -> unit
  val scan_cost : card:float -> float
  val output_cost : card:float -> float
end

type t = (module S)
