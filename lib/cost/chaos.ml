(* Deterministic fault injection for cost models.

   [wrap] turns any cost model into one that occasionally returns garbage —
   NaN, infinity, zero, or a cost computed from overflowed cardinalities —
   to prove that the optimizer pipeline is total under a misbehaving
   estimator (the containment wall is [Plan_cost.clamp_cost] /
   [clamp_card]).

   Faults are a pure function of (seed, call inputs), not of call order:
   the same query costed twice gets the same faults, so chaos runs stay
   reproducible and checkpoint/resume remains bit-identical. *)

type fault = Nan_cost | Inf_cost | Zero_cost | Overflow_card

let fault_name = function
  | Nan_cost -> "nan-cost"
  | Inf_cost -> "inf-cost"
  | Zero_cost -> "zero-cost"
  | Overflow_card -> "overflow-card"

(* splitmix64 finalizer: a cheap, well-mixed 64-bit hash. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let hash_floats ~seed fs =
  List.fold_left
    (fun h f -> mix64 (Int64.logxor h (Int64.bits_of_float f)))
    (mix64 (Int64.of_int seed))
    fs

(* Uniform in [0, 1) from the hash's top 53 bits. *)
let unit_float h =
  Int64.to_float (Int64.shift_right_logical h 11) *. 0x1p-53

let fault_of h =
  match Int64.to_int (Int64.logand h 3L) with
  | 0 -> Nan_cost
  | 1 -> Inf_cost
  | 2 -> Zero_cost
  | _ -> Overflow_card

let decide ~seed ~rate fs =
  let h = hash_floats ~seed fs in
  if unit_float h < rate then Some (fault_of (mix64 h)) else None

let default_rate = 0.05

let wrap ?(rate = default_rate) ~seed (model : Cost_model.t) : Cost_model.t =
  let module M = (val model : Cost_model.S) in
  (module struct
    let name = Printf.sprintf "chaos(%s,seed=%d,rate=%g)" M.name seed rate

    let join_cost (input : Cost_model.join_input) =
      let decision =
        decide ~seed ~rate
          [
            1.0;
            input.outer_card;
            input.inner_card;
            input.inner_distinct;
            input.output_card;
            (if input.is_first then 2.0 else 3.0);
            (if input.is_cross then 5.0 else 7.0);
          ]
      in
      match decision with
      | None -> M.join_cost input
      | Some Nan_cost -> Float.nan
      | Some Inf_cost -> Float.infinity
      | Some Zero_cost -> 0.0
      | Some Overflow_card ->
        (* Feed the underlying model cardinalities far past any clamp, as an
           upstream estimator overflow would. *)
        M.join_cost
          {
            input with
            outer_card = input.outer_card *. 1e300;
            output_card = Float.max input.output_card 1e300;
          }

    let scan_cost ~card =
      match decide ~seed ~rate [ 11.0; card ] with
      | None -> M.scan_cost ~card
      | Some Nan_cost -> Float.nan
      | Some Inf_cost -> Float.infinity
      | Some Zero_cost -> 0.0
      | Some Overflow_card -> M.scan_cost ~card:(card *. 1e300)

    let output_cost ~card =
      match decide ~seed ~rate [ 13.0; card ] with
      | None -> M.output_cost ~card
      | Some Nan_cost -> Float.nan
      | Some Inf_cost -> Float.infinity
      | Some Zero_cost -> 0.0
      | Some Overflow_card -> M.output_cost ~card:(card *. 1e300)
  end)

exception Injected of string

(* Same seeded decision machinery, harsher failure mode: instead of garbage
   values, a faulted join costing *raises*.  This models an estimator that
   crashes outright (catalog lookup failure, assertion in a UDF), and is the
   adversary the serving path's per-request guard is proven against: the
   request fails, the worker and its queue survive.  The salt (17.0)
   differs from [wrap]'s call-site salts so the two chaos modes fault
   independent call subsets under one seed. *)
let wrap_raising ?(rate = default_rate) ~seed (model : Cost_model.t) :
    Cost_model.t =
  let module M = (val model : Cost_model.S) in
  (module struct
    let name = Printf.sprintf "chaos-raising(%s,seed=%d,rate=%g)" M.name seed rate

    let join_cost (input : Cost_model.join_input) =
      match
        decide ~seed ~rate
          [
            17.0;
            input.outer_card;
            input.inner_card;
            input.inner_distinct;
            input.output_card;
            (if input.is_first then 2.0 else 3.0);
            (if input.is_cross then 5.0 else 7.0);
          ]
      with
      | None -> M.join_cost input
      | Some f -> raise (Injected (fault_name f))

    let scan_cost ~card = M.scan_cost ~card

    let output_cost ~card = M.output_cost ~card
  end)
