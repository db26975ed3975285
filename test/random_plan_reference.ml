(* The pre-bitset array-marking form of [Random_plan.generate], kept as the
   oracle the mask forms are tested against.  Both mask forms replicate its
   candidate-array evolution exactly, so all three produce identical plans
   from identical RNG states. *)

open Ljqo_catalog
open Ljqo_stats

let generate rng query =
  let n = Query.n_relations query in
  let graph = Query.graph query in
  let perm = Array.make n (-1) in
  let placed = Array.make n false in
  (* Candidate set: relations joined to the prefix, as a compact array with
     an index for O(1) membership and removal. *)
  let candidates = Array.make n 0 in
  let cand_index = Array.make n (-1) in
  let cand_count = ref 0 in
  let add_candidate r =
    if (not placed.(r)) && cand_index.(r) < 0 then begin
      candidates.(!cand_count) <- r;
      cand_index.(r) <- !cand_count;
      incr cand_count
    end
  in
  let remove_candidate r =
    let i = cand_index.(r) in
    if i >= 0 then begin
      let last = candidates.(!cand_count - 1) in
      candidates.(i) <- last;
      cand_index.(last) <- i;
      cand_index.(r) <- -1;
      decr cand_count
    end
  in
  let place i r =
    perm.(i) <- r;
    placed.(r) <- true;
    remove_candidate r;
    List.iter (fun (other, _) -> add_candidate other) (Join_graph.neighbors graph r)
  in
  place 0 (Rng.int rng n);
  for i = 1 to n - 1 do
    if !cand_count = 0 then
      invalid_arg "Random_plan.generate: join graph is disconnected";
    place i candidates.(Rng.int rng !cand_count)
  done;
  perm
