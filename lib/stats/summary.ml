let check_nonempty name a =
  if Array.length a = 0 then invalid_arg ("Summary." ^ name ^ ": empty input")

let mean a =
  check_nonempty "mean" a;
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let variance a =
  check_nonempty "variance" a;
  let n = Array.length a in
  if n = 1 then 0.0
  else
    let m = mean a in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 a in
    ss /. float_of_int (n - 1)

let sorted_copy a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let median a =
  check_nonempty "median" a;
  let b = sorted_copy a in
  let n = Array.length b in
  if n mod 2 = 1 then b.(n / 2) else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.0

let percentile a p =
  check_nonempty "percentile" a;
  if p < 0.0 || p > 100.0 then invalid_arg "Summary.percentile: p out of range";
  let b = sorted_copy a in
  let n = Array.length b in
  if n = 1 then b.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then b.(lo)
    else
      let frac = rank -. float_of_int lo in
      (b.(lo) *. (1.0 -. frac)) +. (b.(hi) *. frac)

let min_max a =
  check_nonempty "min_max" a;
  Array.fold_left
    (fun (mn, mx) x -> ((if x < mn then x else mn), if x > mx then x else mx))
    (a.(0), a.(0))
    a

let geometric_mean a =
  check_nonempty "geometric_mean" a;
  let s =
    Array.fold_left
      (fun acc x ->
        if x <= 0.0 then invalid_arg "Summary.geometric_mean: non-positive sample"
        else acc +. log x)
      0.0 a
  in
  exp (s /. float_of_int (Array.length a))
