open Ljqo_catalog
module IntSet = Set.Make (Int)

(* Model-based checking: every Bitset operation must agree with Set.Make(Int)
   on arbitrary id lists.  Ids are drawn well past the two inline words
   (several tail words deep), and the generator pins extra mass on the width
   boundaries — 62/63 (first/second inline word), 125/126 (inline/tail) and
   188/189 (first/second tail word) — where the representation switches. *)

let boundary_ids = [ 0; 62; 63; 125; 126; 127; 188; 189; 251; 252 ]

let arb_id =
  QCheck.make
    QCheck.Gen.(
      frequency
        [
          (3, int_bound 300);
          (1, oneofl boundary_ids);
        ])

let arb_ids = QCheck.list_of_size QCheck.Gen.(int_bound 32) arb_id

let arb_ids2 = QCheck.pair arb_ids arb_ids

let prop name = Helpers.qcheck_case ~count:200 ~name

let prop_roundtrip =
  prop "of_list/to_list agrees with IntSet"
    (fun l -> Bitset.to_list (Bitset.of_list l) = IntSet.elements (IntSet.of_list l))
    arb_ids

let prop_mem =
  prop "mem agrees with IntSet"
    (fun l ->
      let s = Bitset.of_list l and m = IntSet.of_list l in
      List.for_all (fun i -> Bitset.mem i s = IntSet.mem i m)
        (List.init 320 Fun.id))
    arb_ids

let prop_add_remove =
  prop "add/remove agree with IntSet"
    (fun (l, extra) ->
      let s = ref (Bitset.of_list l) and m = ref (IntSet.of_list l) in
      List.for_all
        (fun i ->
          if i mod 2 = 0 then begin
            s := Bitset.add i !s;
            m := IntSet.add i !m
          end
          else begin
            s := Bitset.remove i !s;
            m := IntSet.remove i !m
          end;
          Bitset.to_list !s = IntSet.elements !m)
        extra)
    arb_ids2

let prop_algebra =
  prop "union/inter/diff agree with IntSet"
    (fun (a, b) ->
      let sa = Bitset.of_list a and sb = Bitset.of_list b in
      let ma = IntSet.of_list a and mb = IntSet.of_list b in
      Bitset.to_list (Bitset.union sa sb) = IntSet.elements (IntSet.union ma mb)
      && Bitset.to_list (Bitset.inter sa sb) = IntSet.elements (IntSet.inter ma mb)
      && Bitset.to_list (Bitset.diff sa sb) = IntSet.elements (IntSet.diff ma mb))
    arb_ids2

let prop_predicates =
  prop "subset/intersects/equal/cardinal agree with IntSet"
    (fun (a, b) ->
      let sa = Bitset.of_list a and sb = Bitset.of_list b in
      let ma = IntSet.of_list a and mb = IntSet.of_list b in
      Bitset.subset sa sb = IntSet.subset ma mb
      && Bitset.intersects sa sb = not (IntSet.is_empty (IntSet.inter ma mb))
      && Bitset.equal sa sb = IntSet.equal ma mb
      && Bitset.cardinal sa = IntSet.cardinal ma
      && Bitset.is_empty sa = IntSet.is_empty ma)
    arb_ids2

let prop_min_elt_iter_fold =
  prop "min_elt/iter/fold visit ascending like IntSet"
    (fun l ->
      let s = Bitset.of_list l and m = IntSet.of_list l in
      let iter_order = ref [] in
      Bitset.iter (fun i -> iter_order := i :: !iter_order) s;
      let fold_order = List.rev (Bitset.fold (fun i acc -> i :: acc) s []) in
      List.rev !iter_order = IntSet.elements m
      && fold_order = IntSet.elements m
      && (IntSet.is_empty m || Bitset.min_elt s = IntSet.min_elt m))
    arb_ids

let prop_compare_order =
  prop "compare is a total order consistent with equal"
    (fun (a, b) ->
      let sa = Bitset.of_list a and sb = Bitset.of_list b in
      (Bitset.compare sa sb = 0) = Bitset.equal sa sb
      && Bitset.compare sa sb = -Bitset.compare sb sa)
    arb_ids2

(* The growable representation must not move any fixed-seed output at
   [n <= inline_size]: on inline sets, [compare] must still be the historic
   machine-word order — (w1, w0) lexicographic. *)
let prop_compare_inline_stable =
  let arb_inline =
    QCheck.pair
      (QCheck.list_of_size QCheck.Gen.(int_bound 32)
         (QCheck.int_bound (Bitset.inline_size - 1)))
      (QCheck.list_of_size QCheck.Gen.(int_bound 32)
         (QCheck.int_bound (Bitset.inline_size - 1)))
  in
  prop "compare on inline sets is the historic (w1, w0) order"
    (fun (a, b) ->
      let sa = Bitset.of_list a and sb = Bitset.of_list b in
      let historic =
        let c = compare sa.Bitset.w1 sb.Bitset.w1 in
        if c <> 0 then c else compare sa.Bitset.w0 sb.Bitset.w0
      in
      (* sign-normalize: compare need only agree in sign *)
      let sign x = compare x 0 in
      sign (Bitset.compare sa sb) = sign historic)
    arb_inline

(* Canonical form: however a set is reached, the concrete representation is
   identical, so structural equality and polymorphic hashing coincide with
   set equality — the DP hashtable keys on this. *)
let prop_canonical =
  prop "same set built differently is structurally equal"
    (fun l ->
      let direct = Bitset.of_list l in
      let via_detour =
        List.fold_left
          (fun acc i -> Bitset.remove (i + 400) (Bitset.add (i + 400) (Bitset.add i acc)))
          Bitset.empty l
      in
      Stdlib.compare direct via_detour = 0
      && Hashtbl.hash direct = Hashtbl.hash via_detour)
    arb_ids

let prop_intersects_words =
  prop "intersects_words agrees with intersects"
    (fun (a, b) ->
      let sa = Bitset.of_list a and sb = Bitset.of_list b in
      let nw = Bitset.words_needed (List.fold_left max 0 b + 1) in
      let arr = Array.init nw (Bitset.word sb) in
      Bitset.intersects_words sa arr = Bitset.intersects sa sb)
    arb_ids2

(* Regression for the old hash: [(w0 * M) lxor w1] left every word past the
   first unscaled, so singleton sets of high ids collided heavily in the low
   bits a power-of-two hashtable indexes with.  Mixing every word must
   spread 64 high-id singletons over many of 1024 buckets. *)
let test_hash_distribution () =
  let buckets = Hashtbl.create 64 in
  for i = 0 to 63 do
    let s = Bitset.singleton (126 + (63 * (i mod 4)) + (i / 4)) in
    Hashtbl.replace buckets (Bitset.hash s land 1023) ()
  done;
  let distinct = Hashtbl.length buckets in
  if distinct < 40 then
    Alcotest.failf "high-id singletons land in only %d/1024 buckets" distinct;
  (* hash must also be non-negative and equal on equal sets *)
  let s = Bitset.of_list [ 1; 130; 260 ] in
  Alcotest.(check bool) "hash non-negative" true (Bitset.hash s >= 0);
  Alcotest.(check int) "hash equal on equal"
    (Bitset.hash s)
    (Bitset.hash (Bitset.remove 500 (Bitset.add 500 s)))

let test_word_boundaries () =
  (* ids straddling each 63-bit word boundary, inline and tail *)
  List.iter
    (fun i ->
      let s = Bitset.singleton i in
      Alcotest.(check bool) "mem of singleton" true (Bitset.mem i s);
      Alcotest.(check int) "cardinal 1" 1 (Bitset.cardinal s);
      Alcotest.(check (list int)) "to_list" [ i ] (Bitset.to_list s);
      Alcotest.(check int) "min_elt" i (Bitset.min_elt s))
    [ 0; 1; 62; 63; 64; 124; 125; 126; 127; 188; 189; 251; 252 ]

let test_full () =
  Alcotest.(check (list int)) "full 0" [] (Bitset.to_list (Bitset.full 0));
  Alcotest.(check (list int)) "full 5" [ 0; 1; 2; 3; 4 ]
    (Bitset.to_list (Bitset.full 5));
  Alcotest.(check int) "full 63 cardinal" 63 (Bitset.cardinal (Bitset.full 63));
  Alcotest.(check int) "full 64 cardinal" 64 (Bitset.cardinal (Bitset.full 64));
  Alcotest.(check int) "full 126 cardinal" 126 (Bitset.cardinal (Bitset.full 126));
  Alcotest.(check int) "full 127 cardinal" 127 (Bitset.cardinal (Bitset.full 127));
  Alcotest.(check int) "full 200 cardinal" 200 (Bitset.cardinal (Bitset.full 200));
  Alcotest.(check bool) "full 200 holds 199" true
    (Bitset.mem 199 (Bitset.full 200));
  Alcotest.(check bool) "full 200 lacks 200" false
    (Bitset.mem 200 (Bitset.full 200));
  (* full n at a wide width equals the of_list form (canonical) *)
  Alcotest.(check int) "full 200 structural" 0
    (Stdlib.compare (Bitset.full 200) (Bitset.of_list (List.init 200 Fun.id)))

let test_out_of_range () =
  let expect_invalid msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail msg
  in
  expect_invalid "singleton -1" (fun () -> Bitset.singleton (-1));
  expect_invalid "add -1" (fun () -> Bitset.add (-1) Bitset.empty);
  expect_invalid "full negative" (fun () -> Bitset.full (-1));
  expect_invalid "min_elt empty" (fun () -> Bitset.min_elt Bitset.empty);
  (* no upper cap anymore: far ids are simply representable *)
  Alcotest.(check bool) "id 10000 representable" true
    (Bitset.mem 10000 (Bitset.singleton 10000))

let suite =
  [
    Alcotest.test_case "word boundaries" `Quick test_word_boundaries;
    Alcotest.test_case "full" `Quick test_full;
    Alcotest.test_case "out of range" `Quick test_out_of_range;
    Alcotest.test_case "hash distribution" `Quick test_hash_distribution;
    prop_roundtrip;
    prop_mem;
    prop_add_remove;
    prop_algebra;
    prop_predicates;
    prop_min_elt_iter_fold;
    prop_compare_order;
    prop_compare_inline_stable;
    prop_canonical;
    prop_intersects_words;
  ]
