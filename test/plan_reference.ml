(* The pre-bitset array-marking form of [Plan.is_valid], kept as the
   oracle the mask forms are tested against: same verdict on every input. *)

open Ljqo_catalog

(* Every element past the first joins with some earlier one. *)
let connected_prefixes_scan graph perm =
  let placed = Array.make (Array.length perm) false in
  let ok = ref true in
  Array.iteri
    (fun i r ->
      if i > 0 then begin
        let joined =
          List.exists (fun (other, _) -> placed.(other)) (Join_graph.neighbors graph r)
        in
        if not joined then ok := false
      end;
      placed.(r) <- true)
    perm;
  !ok

let is_valid query perm =
  Array.length perm = Query.n_relations query
  && Ljqo_core.Plan.is_permutation perm
  && connected_prefixes_scan (Query.graph query) perm
