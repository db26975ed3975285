type params = {
  page_bytes : int;
  tuple_bytes : int;
  memory_pages : int;
  io_cost : float;
  cpu_per_tuple : float;
}

let default_params =
  {
    page_bytes = 4096;
    tuple_bytes = 128;
    memory_pages = 256;
    io_cost = 1.0;
    cpu_per_tuple = 0.001;
  }

(* [Float.max 1.0 (Float.round (ceil (Float.max 0.0 card /. per_page)))]
   with each [Float.max c x] written [if x <= c then c else x]: bit for bit
   the same for these constants, NaN and -0 included, and inlined into
   [join_cost] it boxes nothing. *)
let[@inline] pages p card =
  let per_page = float_of_int (p.page_bytes / p.tuple_bytes) in
  let card = if card <= 0.0 then 0.0 else card in
  let n = Float.round (ceil (card /. per_page)) in
  if n <= 1.0 then 1.0 else n

module Make (P : sig
  val params : params
end) : Cost_model.S = struct
  let p = P.params

  let name = "disk"

  let join_cost ~is_first:_ ~is_cross (j : Cost_model.join_input) =
    let inner_pages = pages p j.inner_card in
    let outer_pages = pages p j.outer_card in
    let out_pages = pages p j.output_card in
    let pass_factor = if inner_pages <= float_of_int p.memory_pages then 1.0 else 3.0 in
    let io = (pass_factor *. (inner_pages +. outer_pages)) +. out_pages in
    let cpu =
      if is_cross then j.outer_card *. j.inner_card
      else j.outer_card +. j.inner_card +. j.output_card
    in
    j.cost <- (p.io_cost *. io) +. (p.cpu_per_tuple *. cpu)

  let scan_cost ~card = p.io_cost *. pages p card

  let output_cost ~card = p.io_cost *. pages p card
end

include Make (struct
  let params = default_params
end)
