module Methods = Ljqo_core.Methods

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

(* Serialization: the checkpoint-v2 discipline.  Floats travel as IEEE-754
   bit patterns in bare lowercase hex, integers as canonical decimals, and
   every line after the magic carries an MD5 of its payload.  The header
   declares the weight-line count and the file must end in a newline, so a
   load sees exactly the declared shape or nothing. *)

let magic = "# ljqo-learn-model v1"

let float_to_hex v = Printf.sprintf "%Lx" (Int64.bits_of_float v)

let canonical_nat s =
  let n = String.length s in
  if n = 0 || n > 18 then None
  else if n > 1 && s.[0] = '0' then None
  else begin
    let ok = ref true in
    String.iter (fun c -> if c < '0' || c > '9' then ok := false) s;
    if !ok then int_of_string_opt s else None
  end

let float_of_hex s =
  let n = String.length s in
  if n = 0 || n > 16 then None
  else if n > 1 && s.[0] = '0' then None
  else begin
    let ok = ref true in
    String.iter
      (fun c ->
        if not ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) then
          ok := false)
      s;
    if !ok then
      match Int64.of_string_opt ("0x" ^ s) with
      | Some bits -> Some (Int64.float_of_bits bits)
      | None -> None
    else None
  end

let checksum payload = Digest.to_hex (Digest.string payload)

let sealed payload = payload ^ " " ^ checksum payload ^ "\n"

let to_string t =
  let b = Buffer.create 1024 in
  Buffer.add_string b (magic ^ "\n");
  Buffer.add_string b
    (sealed
       (Printf.sprintf "H %d %s %d" Features.dim (float_to_hex t.lambda)
          (List.length t.weights)));
  let rb = Buffer.create 256 in
  Buffer.add_char rb 'R';
  Array.iter
    (fun (lo, hi) ->
      Buffer.add_string rb
        (Printf.sprintf " %s %s" (float_to_hex lo) (float_to_hex hi)))
    t.ranges;
  Buffer.add_string b (sealed (Buffer.contents rb));
  List.iter
    (fun (name, w) ->
      let wb = Buffer.create 256 in
      Buffer.add_string wb (Printf.sprintf "W %s %d" name (Array.length w));
      Array.iter
        (fun v -> Buffer.add_string wb (" " ^ float_to_hex v))
        w;
      Buffer.add_string b (sealed (Buffer.contents wb)))
    t.weights;
  Buffer.contents b

let save ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

(* Split a sealed line into its payload tokens; None on a bad or missing
   checksum. *)
let unseal line =
  match String.rindex_opt line ' ' with
  | None -> None
  | Some i ->
    let payload = String.sub line 0 i in
    let digest = String.sub line (i + 1) (String.length line - i - 1) in
    if String.length digest = 32 && String.equal digest (checksum payload)
    then Some (String.split_on_char ' ' payload)
    else None

(* All-or-nothing token list of bit-pattern floats. *)
let parse_hex_list toks =
  let cells = List.map (fun c -> Option.to_list (float_of_hex c)) toks in
  let flat = List.concat cells in
  if List.length flat = List.length toks then Some flat else None

let parse_header line =
  match unseal line with
  | Some [ "H"; dim_s; lambda_s; n_s ] -> (
    match (canonical_nat dim_s, float_of_hex lambda_s, canonical_nat n_s) with
    | Some dim, Some lambda, Some n when dim = Features.dim && n >= 1 ->
      Some (lambda, n)
    | _ -> None)
  | _ -> None

let parse_ranges line =
  match unseal line with
  | Some ("R" :: toks) when List.length toks = 2 * Features.dim -> (
    match parse_hex_list toks with
    | Some vals ->
      let arr = Array.of_list vals in
      Some (Array.init Features.dim (fun i -> (arr.(2 * i), arr.((2 * i) + 1))))
    | None -> None)
  | _ -> None

let parse_weight line =
  match unseal line with
  | Some ("W" :: name :: k_s :: toks) -> (
    match (Methods.of_name name, canonical_nat k_s) with
    | Some _, Some k when k = coef_dim && List.length toks = k -> (
      match parse_hex_list toks with
      | Some vals -> Some (name, Array.of_list vals)
      | None -> None)
    | _ -> None)
  | _ -> None

let of_string s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let len = String.length s in
  if len = 0 || s.[len - 1] <> '\n' then err "missing trailing newline"
  else
    match String.split_on_char '\n' (String.sub s 0 (len - 1)) with
    | magic_line :: header :: ranges_line :: weight_lines
      when String.equal magic_line magic -> (
      match parse_header header with
      | None -> err "line 2: bad header"
      | Some (lambda, n_weights) ->
        if List.length weight_lines <> n_weights then
          err "expected %d weight lines, found %d" n_weights
            (List.length weight_lines)
        else (
          match parse_ranges ranges_line with
          | None -> err "line 3: bad ranges line"
          | Some ranges ->
            let rec go seen acc lineno = function
              | [] -> Ok { lambda; ranges; weights = List.rev acc }
              | line :: tl -> (
                match parse_weight line with
                | Some (name, w) when not (List.mem name seen) ->
                  go (name :: seen) ((name, w) :: acc) (lineno + 1) tl
                | Some (name, _) -> err "line %d: duplicate route %s" lineno name
                | None -> err "line %d: bad weight line" lineno)
            in
            go [] [] 4 weight_lines))
    | _ -> err "line 1: bad magic or truncated file"

let load ~path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        match of_string s with
        | Ok t -> Ok t
        | Error e -> Error (Printf.sprintf "%s: %s" path e))
