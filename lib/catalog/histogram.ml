type t = {
  lo : float;
  hi : float;  (* exclusive upper edge; lo < hi *)
  counts : int array;
  total : int;
}

let of_counts ~lo ~hi ~counts =
  if lo >= hi then invalid_arg "Histogram.of_counts: lo >= hi";
  if Array.length counts = 0 then invalid_arg "Histogram.of_counts: no buckets";
  Array.iter
    (fun c -> if c < 0 then invalid_arg "Histogram.of_counts: negative count")
    counts;
  { lo; hi; counts; total = Array.fold_left ( + ) 0 counts }

let total t = t.total

let bins t = Array.length t.counts

let range t = (t.lo, t.hi)

let selectivity_lt t c =
  if t.total = 0 then 0.0
  else if c <= t.lo then 0.0
  else if c >= t.hi then 1.0
  else begin
    let nbins = Array.length t.counts in
    let width = (t.hi -. t.lo) /. float_of_int nbins in
    let pos = (c -. t.lo) /. width in
    let b = min (nbins - 1) (int_of_float pos) in
    let below = ref 0 in
    for i = 0 to b - 1 do
      below := !below + t.counts.(i)
    done;
    let frac_in_bucket = pos -. float_of_int b in
    (float_of_int !below +. (frac_in_bucket *. float_of_int t.counts.(b)))
    /. float_of_int t.total
  end

let selectivity_ge t c = 1.0 -. selectivity_lt t c

let selectivity_eq t ~distinct c =
  if t.total = 0 || c < t.lo || c >= t.hi then 0.0
  else begin
    let nbins = Array.length t.counts in
    let width = (t.hi -. t.lo) /. float_of_int nbins in
    let b = min (nbins - 1) (int_of_float ((c -. t.lo) /. width)) in
    let bucket_mass = float_of_int t.counts.(b) /. float_of_int t.total in
    let distinct_per_bucket =
      Float.max 1.0 (float_of_int distinct /. float_of_int nbins)
    in
    bucket_mass /. distinct_per_bucket
  end
