open Ljqo_catalog

type t = int array

let is_permutation perm =
  let n = Array.length perm in
  let seen = Array.make n false in
  try
    Array.iter
      (fun r ->
        if r < 0 || r >= n || seen.(r) then raise Exit;
        seen.(r) <- true)
      perm;
    true
  with Exit -> false

(* One allocation-free pass: the placed-prefix mask, tracked as two raw
   bitset words, doubles as the duplicate detector, so the permutation check
   fuses into the connectivity walk.  Step [i] is valid iff the neighbor mask
   of [perm.(i)] meets the prefix. *)
let is_valid_masked graph perm =
  let n = Array.length perm in
  let p0 = ref 0 and p1 = ref 0 in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    let r = Array.unsafe_get perm !i in
    if r < 0 || r >= n then ok := false
    else begin
      let m = Join_graph.neighbor_mask graph r in
      if !i > 0 && (m.Bitset.w0 land !p0) lor (m.Bitset.w1 land !p1) = 0 then
        ok := false
      else if r < 63 then begin
        let b = 1 lsl r in
        if !p0 land b <> 0 then ok := false else p0 := !p0 lor b
      end
      else begin
        let b = 1 lsl (r - 63) in
        if !p1 land b <> 0 then ok := false else p1 := !p1 lor b
      end
    end;
    incr i
  done;
  !ok

(* Wide twin of [is_valid_masked]: the prefix as a scratch word array
   instead of two locals.  Same fused duplicate + connectivity walk; one
   short-lived array per call, no per-step allocation. *)
let is_valid_wide graph perm =
  let n = Array.length perm in
  let words = Array.make (Bitset.words_needed n) 0 in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    let r = Array.unsafe_get perm !i in
    if r < 0 || r >= n then ok := false
    else begin
      let m = Join_graph.neighbor_mask graph r in
      if !i > 0 && not (Bitset.intersects_words m words) then ok := false
      else begin
        let k = r / Bitset.word_bits in
        let b = 1 lsl (r mod Bitset.word_bits) in
        let w = Array.unsafe_get words k in
        if w land b <> 0 then ok := false
        else Array.unsafe_set words k (w lor b)
      end
    end;
    incr i
  done;
  !ok

let is_valid query perm =
  Array.length perm = Query.n_relations query
  &&
  let graph = Query.graph query in
  if Array.length perm <= Bitset.inline_size then is_valid_masked graph perm
  else is_valid_wide graph perm

let inverse perm =
  let pos = Array.make (Array.length perm) 0 in
  Array.iteri (fun i r -> pos.(r) <- i) perm;
  pos


let concat perms = Array.concat perms

let equal a b = a = b

let to_string perm =
  "("
  ^ String.concat " " (Array.to_list (Array.map string_of_int perm))
  ^ ")"
