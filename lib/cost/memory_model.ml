type params = {
  c_build : float;
  c_probe : float;
  c_compare : float;
  c_output : float;
}

let default_params = { c_build = 1.0; c_probe = 1.0; c_compare = 0.5; c_output = 1.0 }

module Make (P : sig
  val params : params
end) : Cost_model.S = struct
  let p = P.params

  let name = "memory"

  let join_cost ~is_first:_ ~is_cross (j : Cost_model.join_input) =
    j.cost <-
      (if is_cross then
         (* Nested loops: no hash table helps when there is no predicate. *)
         (p.c_probe *. j.outer_card *. j.inner_card) +. (p.c_output *. j.output_card)
       else
         (* [Float.max 1.0 d] as a plain compare, NaN included: [d <= 1.0] is
            false for a NaN [d], which then passes through. *)
         let d = j.inner_distinct in
         let chain = j.inner_card /. if d <= 1.0 then 1.0 else d in
         (p.c_build *. j.inner_card)
         +. (j.outer_card *. (p.c_probe +. (p.c_compare *. chain)))
         +. (p.c_output *. j.output_card))

  let scan_cost ~card = p.c_build *. card

  let output_cost ~card = p.c_output *. card
end

let make params : Cost_model.t =
  (module Make (struct
    let params = params
  end))

include Make (struct
  let params = default_params
end)
