open Ljqo_catalog
open Ljqo_stats

(* Hot form: membership bookkeeping collapses into one bitset, tracked as
   two raw words so the whole generation allocates nothing beyond the two
   arrays.  [seen] is placed-or-candidate — a relation enters it exactly
   once, when first discovered — and because the picked candidate's position
   is known at the pick, the index side-table disappears with it.  The
   candidate array evolves exactly as in the array-marking form the tests
   keep as their oracle (append at discovery, swap-remove with the last
   element), so identical RNG states yield identical plans. *)
let generate_masked rng query =
  let n = Query.n_relations query in
  let graph = Query.graph query in
  let adjacency = Join_graph.adjacency graph in
  let perm = Array.make n (-1) in
  let candidates = Array.make n 0 in
  let cand_count = ref 0 in
  let s0 = ref 0 and s1 = ref 0 in
  let place i r =
    Array.unsafe_set perm i r;
    if r < 63 then s0 := !s0 lor (1 lsl r) else s1 := !s1 lor (1 lsl (r - 63));
    let ids = Array.unsafe_get adjacency r in
    for j = 0 to Array.length ids - 1 do
      let w = Array.unsafe_get ids j in
      if w < 63 then begin
        let b = 1 lsl w in
        if !s0 land b = 0 then begin
          Array.unsafe_set candidates !cand_count w;
          s0 := !s0 lor b;
          incr cand_count
        end
      end
      else begin
        let b = 1 lsl (w - 63) in
        if !s1 land b = 0 then begin
          Array.unsafe_set candidates !cand_count w;
          s1 := !s1 lor b;
          incr cand_count
        end
      end
    done
  in
  place 0 (Rng.int rng n);
  for i = 1 to n - 1 do
    if !cand_count = 0 then
      invalid_arg "Random_plan.generate: join graph is disconnected";
    let idx = Rng.int rng !cand_count in
    let r = Array.unsafe_get candidates idx in
    Array.unsafe_set candidates idx (Array.unsafe_get candidates (!cand_count - 1));
    decr cand_count;
    place i r
  done;
  perm

(* Wide twin of [generate_masked]: the placed-or-candidate set as a scratch
   word array instead of two locals.  Candidate-array evolution — and hence
   the plan drawn from any RNG state — is identical. *)
let generate_wide rng query =
  let n = Query.n_relations query in
  let graph = Query.graph query in
  let adjacency = Join_graph.adjacency graph in
  let perm = Array.make n (-1) in
  let candidates = Array.make n 0 in
  let cand_count = ref 0 in
  let seen = Array.make (Bitset.words_needed n) 0 in
  let place i r =
    Array.unsafe_set perm i r;
    let k = r / Bitset.word_bits in
    Array.unsafe_set seen k
      (Array.unsafe_get seen k lor (1 lsl (r mod Bitset.word_bits)));
    let ids = Array.unsafe_get adjacency r in
    for j = 0 to Array.length ids - 1 do
      let w = Array.unsafe_get ids j in
      let kw = w / Bitset.word_bits in
      let b = 1 lsl (w mod Bitset.word_bits) in
      let sw = Array.unsafe_get seen kw in
      if sw land b = 0 then begin
        Array.unsafe_set candidates !cand_count w;
        Array.unsafe_set seen kw (sw lor b);
        incr cand_count
      end
    done
  in
  place 0 (Rng.int rng n);
  for i = 1 to n - 1 do
    if !cand_count = 0 then
      invalid_arg "Random_plan.generate: join graph is disconnected";
    let idx = Rng.int rng !cand_count in
    let r = Array.unsafe_get candidates idx in
    Array.unsafe_set candidates idx (Array.unsafe_get candidates (!cand_count - 1));
    decr cand_count;
    place i r
  done;
  perm

let generate rng query =
  let n = Query.n_relations query in
  if n = 0 then invalid_arg "Random_plan.generate: empty query";
  if n <= Bitset.inline_size then generate_masked rng query
  else generate_wide rng query

let generate_charged ev rng =
  let query = Evaluator.query ev in
  Evaluator.charge ev (Query.n_relations query);
  generate rng query
