(* Log-bucketed histograms (HdrHistogram-style): power-of-two buckets with
   [sub] linear sub-buckets each, over non-negative integer values.

   The bucket index of a value is a pure function of the value alone — no
   floating point, no configuration — so two histograms built anywhere from
   the same multiset of values are structurally equal, and [merge] (cell-wise
   addition) is associative and commutative.  That is what lets the process
   keep one atomic cell array per metric, merge per-run snapshots in any
   order, and still claim deterministic output (see the qcheck property in
   test/test_obs.ml).

   Layout: values 0..15 get exact unit buckets; from 16 up, each power-of-two
   range [2^(4+e), 2^(5+e)) is split into 16 equal sub-buckets, giving a
   worst-case relative bucket width of 1/16 (~6%).  62-bit values need
   16 + 59*16 = 960 cells. *)

let sub_bits = 4

let sub = 1 lsl sub_bits (* 16 *)

(* Largest exponent e reachable by a 62-bit positive int: the top set bit of
   [max_int] is bit 61, so e = 61 - sub_bits = 57; size e 0..57 inclusive. *)
let n_buckets = sub * (59 + 1)

(* Position of the most significant set bit (v > 0). *)
let msb v =
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let index v =
  let v = if v < 0 then 0 else v in
  if v < sub then v
  else begin
    let e = msb v - sub_bits in
    let i = (sub * e) + (v lsr e) in
    if i >= n_buckets then n_buckets - 1 else i
  end

(* Inclusive lower bound of bucket [i] — the value reported for quantiles. *)
let bucket_lo i =
  if i < sub then i
  else
    let e = (i / sub) - 1 in
    (i mod sub + sub) lsl e

type t = { counts : int array; count : int; sum : int }

let empty = { counts = [||]; count = 0; sum = 0 }

let is_empty h = h.count = 0

let count h = h.count

let sum h = h.sum

let mean h = if h.count = 0 then 0.0 else float_of_int h.sum /. float_of_int h.count

(* Dense constructor used by the snapshot path in Obs. *)
let of_cells ~counts ~count ~sum =
  if Array.length counts <> n_buckets then
    invalid_arg "Hist.of_cells: wrong cell count";
  if Array.for_all (fun c -> c = 0) counts then empty
  else { counts = Array.copy counts; count; sum }

let record h v =
  let v = if v < 0 then 0 else v in
  let counts =
    if h.counts = [||] then Array.make n_buckets 0 else Array.copy h.counts
  in
  counts.(index v) <- counts.(index v) + 1;
  { counts; count = h.count + 1; sum = h.sum + v }

(* Clamp a float measurement into the histogram's integer domain: negatives
   and NaN record as 0, overlarge values saturate at max_int/2 (still inside
   the last bucket). *)
let record_f h v =
  let cap = float_of_int (max_int / 2) in
  let q =
    if Float.is_nan v || v <= 0.0 then 0
    else if v >= cap then max_int / 2
    else int_of_float v
  in
  record h q

let merge a b =
  if a.count = 0 then b
  else if b.count = 0 then a
  else
    {
      counts = Array.init n_buckets (fun i -> a.counts.(i) + b.counts.(i));
      count = a.count + b.count;
      sum = a.sum + b.sum;
    }

let max_value h =
  if h.count = 0 then 0
  else begin
    let top = ref 0 in
    Array.iteri (fun i c -> if c > 0 then top := i) h.counts;
    bucket_lo !top
  end

let min_value h =
  if h.count = 0 then 0
  else begin
    let bot = ref (n_buckets - 1) in
    for i = n_buckets - 1 downto 0 do
      if h.counts.(i) > 0 then bot := i
    done;
    bucket_lo !bot
  end

(* Value at quantile q in [0,1]: the lower bound of the bucket holding the
   ceil(q * count)-th smallest recorded value.  Deterministic: no
   interpolation, no floats beyond computing the rank. *)
let quantile h q =
  if h.count = 0 then 0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    (* Clamp the rank into [1, count]: [q *. float count] can round up past
       [count] once counts exceed the float mantissa, and a rank beyond every
       recorded value would walk off the top of the table instead of landing
       on the max bucket ([quantile h 1.0] must equal [max_value h]). *)
    let rank =
      min h.count (max 1 (int_of_float (Float.ceil (q *. float_of_int h.count))))
    in
    let rec go i seen =
      if i >= n_buckets then bucket_lo (n_buckets - 1)
      else
        let seen = seen + h.counts.(i) in
        if seen >= rank then bucket_lo i else go (i + 1) seen
    in
    go 0 0
  end

let nonzero h =
  if h.count = 0 then []
  else begin
    let out = ref [] in
    for i = n_buckets - 1 downto 0 do
      if h.counts.(i) > 0 then out := (i, h.counts.(i)) :: !out
    done;
    !out
  end
