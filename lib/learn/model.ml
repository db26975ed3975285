module Methods = Ljqo_core.Methods
module Sealed = Ljqo_obs.Sealed

type t = {
  lambda : float;
  ranges : (float * float) array;  (* per raw feature, training min/max *)
  weights : (string * float array) list;  (* route name -> dim+2 coefs *)
}

let routes = [ Methods.II; Methods.SA; Methods.Two_phase; Methods.Portfolio ]

let lambda_default = 1.0

(* Coefficient vector width: bias + raw features + log2 ticks. *)
let coef_dim = Features.dim + 2

let design_row features ticks =
  let x = Array.make coef_dim 1.0 in
  Array.blit features 0 x 1 Features.dim;
  x.(coef_dim - 1) <- log (float_of_int (max 1 ticks)) /. log 2.0;
  x

(* Solve (X^T X + lambda I) w = X^T y by Gaussian elimination with partial
   pivoting.  Every loop runs in fixed index order and the pivot choice is a
   strict-max scan, so the solve is deterministic; with lambda > 0 the
   system is positive definite and always solvable. *)
let ridge_solve ~lambda rows ys =
  let k = coef_dim in
  let a = Array.make_matrix k (k + 1) 0.0 in
  List.iter2
    (fun x y ->
      for i = 0 to k - 1 do
        for j = 0 to k - 1 do
          a.(i).(j) <- a.(i).(j) +. (x.(i) *. x.(j))
        done;
        a.(i).(k) <- a.(i).(k) +. (x.(i) *. y)
      done)
    rows ys;
  for i = 0 to k - 1 do
    a.(i).(i) <- a.(i).(i) +. lambda
  done;
  for col = 0 to k - 1 do
    let pivot = ref col in
    for r = col + 1 to k - 1 do
      if Float.abs a.(r).(col) > Float.abs a.(!pivot).(col) then pivot := r
    done;
    let tmp = a.(col) in
    a.(col) <- a.(!pivot);
    a.(!pivot) <- tmp;
    let p = a.(col).(col) in
    for r = 0 to k - 1 do
      if r <> col && a.(r).(col) <> 0.0 then begin
        let f = a.(r).(col) /. p in
        for c = col to k do
          a.(r).(c) <- a.(r).(c) -. (f *. a.(col).(c))
        done
      end
    done
  done;
  Array.init k (fun i -> a.(i).(k) /. a.(i).(i))

let train ?(lambda = lambda_default) samples =
  let samples = List.filter Dataset.usable samples in
  match samples with
  | [] -> None
  | _ ->
    let ranges =
      Array.init Features.dim (fun i ->
          List.fold_left
            (fun (lo, hi) (s : Dataset.sample) ->
              let v = s.Dataset.features.(i) in
              (Float.min lo v, Float.max hi v))
            (infinity, neg_infinity) samples)
    in
    let weights =
      List.filter_map
        (fun route ->
          let name = Methods.name route in
          let mine =
            List.filter (fun (s : Dataset.sample) -> s.Dataset.route = name) samples
          in
          match mine with
          | [] -> None
          | _ ->
            let rows =
              List.map
                (fun (s : Dataset.sample) ->
                  design_row s.Dataset.features s.Dataset.ticks)
                mine
            in
            let ys = List.map Dataset.target mine in
            Some (name, ridge_solve ~lambda rows ys))
        routes
    in
    if weights = [] then None else Some { lambda; ranges; weights }

let predict t ~route ~features ~ticks =
  if Array.length features <> Features.dim then
    invalid_arg "Model.predict: feature width mismatch";
  match List.assoc_opt route t.weights with
  | None -> None
  | Some w ->
    let x = design_row features ticks in
    let acc = ref 0.0 in
    for i = 0 to coef_dim - 1 do
      acc := !acc +. (w.(i) *. x.(i))
    done;
    Some !acc

let in_range t features =
  if Array.length features <> Features.dim then false
  else begin
    let ok = ref true in
    Array.iteri
      (fun i v ->
        let lo, hi = t.ranges.(i) in
        let slack = Float.max 1.0 (0.25 *. (hi -. lo)) in
        if not (v >= lo -. slack && v <= hi +. slack) then ok := false)
      features;
    !ok
  end

let equal a b =
  let bits = Int64.bits_of_float in
  a.lambda = b.lambda
  && Array.length a.ranges = Array.length b.ranges
  && Array.for_all2
       (fun (l1, h1) (l2, h2) -> bits l1 = bits l2 && bits h1 = bits h2)
       a.ranges b.ranges
  && List.length a.weights = List.length b.weights
  && List.for_all2
       (fun (n1, w1) (n2, w2) ->
         String.equal n1 n2
         && Array.length w1 = Array.length w2
         && Array.for_all2 (fun x y -> bits x = bits y) w1 w2)
       a.weights b.weights

(* Persistence: the line schema of model.mli on the sealed-file codec. *)

let magic = "# ljqo-learn-model v1"

let to_string t =
  let hex = List.map Sealed.float in
  let header =
    Sealed.
      [ "H"; int Features.dim; float t.lambda; int (List.length t.weights) ]
  in
  let ranges =
    List.concat_map (fun (lo, hi) -> [ lo; hi ]) (Array.to_list t.ranges)
  in
  Sealed.to_string ~magic
    (header
    :: ("R" :: hex ranges)
    :: List.map
         (fun (name, w) ->
           "W" :: name :: Sealed.int (Array.length w) :: hex (Array.to_list w))
         t.weights)

let decode_header = function
  | [ "H"; dim; lambda; n ] -> (
    match Sealed.(int_of_token dim, float_of_token lambda, int_of_token n) with
    | Some dim, Some lambda, Some n when dim = Features.dim && n >= 1 ->
      Some (lambda, n)
    | _ -> None)
  | _ -> None

let decode_ranges = function
  | "R" :: toks when List.length toks = 2 * Features.dim ->
    Option.map
      (fun vals ->
        let a = Array.of_list vals in
        Array.init Features.dim (fun i -> (a.(2 * i), a.((2 * i) + 1))))
      (Sealed.floats toks)
  | _ -> None

let decode_weight = function
  | "W" :: name :: k :: toks
    when Methods.of_name name <> None
         && Sealed.int_of_token k = Some coef_dim
         && List.length toks = coef_dim ->
    Option.map (fun w -> (name, Array.of_list w)) (Sealed.floats toks)
  | _ -> None

let of_string s =
  let ( let* ) = Result.bind in
  let* lines = Sealed.of_string ~magic s in
  match lines with
  | header :: ranges :: weights -> (
    match (decode_header header, decode_ranges ranges) with
    | None, _ -> Sealed.error ~line:2 "bad header"
    | _, None -> Sealed.error ~line:3 "bad ranges line"
    | Some (_, n), _ when List.length weights <> n ->
      Error
        (Printf.sprintf "expected %d weight lines, found %d" n
           (List.length weights))
    | Some (lambda, _), Some ranges ->
      let* weights =
        Sealed.entries ~first:4 ~noun:"route" decode_weight weights
      in
      Ok { lambda; ranges; weights })
  | _ -> Error "truncated file"

let save ~path t = Sealed.write ~path (to_string t)

let load = Sealed.load of_string
