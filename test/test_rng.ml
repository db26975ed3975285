open Ljqo_stats

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_copy_independent () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  let xa = Rng.bits64 a in
  let xb = Rng.bits64 b in
  Alcotest.(check int64) "copy continues identically" xa xb;
  ignore (Rng.bits64 a);
  (* b unaffected by a's advance *)
  let xa2 = Rng.bits64 a and xb2 = Rng.bits64 b in
  Alcotest.(check bool) "streams diverge after independent advance" true (xa2 <> xb2 || xa = xb)

let test_split_at_stable () =
  let a = Rng.create 9 in
  let c1 = Rng.split_at a 5 in
  let c2 = Rng.split_at a 5 in
  Alcotest.(check int64) "same child stream" (Rng.bits64 c1) (Rng.bits64 c2);
  let d = Rng.split_at a 6 in
  Alcotest.(check bool) "different children differ" true
    (Rng.bits64 (Rng.split_at a 5) <> Rng.bits64 d)

let test_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.fail "int out of bounds"
  done

let test_int_covers () =
  let rng = Rng.create 4 in
  let seen = Array.make 5 false in
  for _ = 1 to 1_000 do
    seen.(Rng.int rng 5) <- true
  done;
  Array.iteri (fun i s -> Alcotest.(check bool) (Printf.sprintf "value %d seen" i) true s) seen

let test_int_in () =
  let rng = Rng.create 5 in
  for _ = 1 to 1_000 do
    let v = Rng.int_in rng (-3) 3 in
    if v < -3 || v > 3 then Alcotest.fail "int_in out of bounds"
  done;
  Alcotest.(check int) "degenerate range" 9 (Rng.int_in rng 9 9)

let test_float_bounds () =
  let rng = Rng.create 6 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.fail "float out of bounds"
  done

let test_float_mean () =
  let rng = Rng.create 8 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng 1.0
  done;
  let mean = !sum /. float_of_int n in
  if mean < 0.48 || mean > 0.52 then Alcotest.failf "uniform mean off: %f" mean

let test_bernoulli () =
  let rng = Rng.create 10 in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  if p < 0.28 || p > 0.32 then Alcotest.failf "bernoulli(0.3) off: %f" p

let test_shuffle_is_permutation () =
  let rng = Rng.create 11 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle preserves elements" (Array.init 50 Fun.id) sorted

let test_shuffle_moves () =
  let rng = Rng.create 12 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle_in_place rng a;
  Alcotest.(check bool) "shuffle changed order" true (a <> Array.init 50 Fun.id)

let test_choose () =
  let rng = Rng.create 13 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Rng.choose rng a in
    if not (Array.mem v a) then Alcotest.fail "choose outside array"
  done;
  Alcotest.check_raises "empty list" (Invalid_argument "Rng.choose_list: empty list")
    (fun () -> ignore (Rng.choose_list rng []))

let prop_int_in_range =
  Helpers.qcheck_case ~name:"int n is always in [0,n)"
    (fun (seed, n) ->
      let n = 1 + abs n mod 1000 in
      let rng = Rng.create seed in
      let v = Rng.int rng n in
      v >= 0 && v < n)
    QCheck.(pair small_int small_int)

let prop_split_differs =
  Helpers.qcheck_case ~name:"split child differs from parent continuation"
    (fun seed ->
      let a = Rng.create seed in
      let child = Rng.split a in
      (* Extremely unlikely to coincide for 4 draws. *)
      let same = ref true in
      for _ = 1 to 4 do
        if Rng.bits64 child <> Rng.bits64 a then same := false
      done;
      not !same)
    QCheck.small_int

(* --- golden streams ------------------------------------------------------ *)

(* First outputs for four seeds, as the generator printed them before its
   state moved into an unboxed buffer.  Every fixed-seed plan, query and
   dataset in the repo hangs off these streams, so a representation change
   must reproduce them exactly.  [int] is pinned at small [n] and at [n]
   near [max_int]; at [big], just over 2^63 / 3, rejection sampling
   discards a third of the draws. *)
let big = (max_int / 3 * 2) + 1

type golden = {
  seed : int;
  bits64 : int64 list;
  int7 : int list;
  int1000 : int list;
  int_max : int list;
  int_big : int list;
  floats : float list;
  split : int64 * int64;  (* child's first draw, then the parent's *)
  split_at : int64 list;  (* children 0, 1, 5; then the untouched parent *)
}

let goldens =
  [
    {
      seed = 0;
      bits64 = [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x6c45d188009454fL ];
      int7 = [ 0x4; 0x4; 0x4; 0x2 ];
      int1000 = [ 0x2ff; 0x352; 0x347; 0xde ];
      int_max = [ 0x3110541cbd8ee6d8; 0x373c4f3550dcb2fa; 0x3622e8c4004a2a7; 0x3c45dc54392640f7 ];
      int_big = [ 0xc91a48aa632084f; 0x3622e8c4004a2a7; 0xd9cc4b528d43a4d; 0x29e5cf863a3f5175 ];
      floats = [ 0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6 ];
      split = (0x568a9b0b1a2c05ecL, 0x6e789e6aa1b965f4L);
      split_at =
        [ 0x8ffdf065f28ac38cL; 0xe5e7a57138476fc1L; 0x3b15881dee14fbadL; 0xe220a8397b1dcdafL ];
    };
    {
      seed = 1;
      bits64 = [ 0xbfef8030ddc2d772L; 0x5f552ce482f2aa47L; 0x70335fc3daf3d8a7L ];
      int7 = [ 0x5; 0x4; 0x2; 0x6 ];
      int1000 = [ 0x3d9; 0x15b; 0x2fb; 0x1f6 ];
      int_max = [ 0x1ff7c0186ee16bba; 0x2faa967241795523; 0x3819afe1ed79ec53; 0x3a207f1db163ce97 ];
      int_big = [ 0x4ffebc796ceaa78; 0xd6f053742cf41a8; 0x19dd1794f3e0b45d; 0x219774f9a9fb1188 ];
      floats = [ 0x1.7fdf0061bb85ap-1; 0x1.7d54b3920bcaap-2; 0x1.c0cd7f0f6bcf6p-2 ];
      split = (0xf0e0e7be2fcf87edL, 0x5f552ce482f2aa47L);
      split_at =
        [ 0xbfdf747fba6b2df1L; 0xd19388ddb08339eL; 0xb4c09c7a0161aaa0L; 0xbfef8030ddc2d772L ];
    };
    {
      seed = 42;
      bits64 = [ 0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L ];
      int7 = [ 0x3; 0x2; 0x0; 0x5 ];
      int1000 = [ 0x8c; 0x253; 0x23a; 0xb7 ];
      int_max = [ 0xc4d9f8985031c35; 0x1486da5f92b86f6b; 0x154c85f31d00d96a; 0x625b5927780c487 ];
      int_big = [ 0x21a2f4deda587189; 0x1486da5f92b86f6b; 0x154c85f31d00d96a; 0x625b5927780c487 ];
      floats = [ 0x1.31367e26140c7p-1; 0x1.486da5f92b86cp-3; 0x1.54c85f31d00d8p-3 ];
      split = (0x33d3b3229fe0c44dL, 0x290db4bf2570ded7L);
      split_at =
        [ 0xb33307ee7ba29b5L; 0x5e588077854b2c6bL; 0x3bdde3b0e22f20b9L; 0x989b3f130a063869L ];
    };
    {
      seed = max_int;
      bits64 = [ 0x2de2ce032c245fa7L; 0xaf69910c113799acL; 0xc214c2e0626ff3efL ];
      int7 = [ 0x4; 0x5; 0x6; 0x6 ];
      int1000 = [ 0xcb; 0x26e; 0x33f; 0x250 ];
      int_max = [ 0x16f1670196122fd3; 0x17b4c886089bccd7; 0x210a61703137f9f8; 0x24b8916e2eca7149 ];
      int_big = [ 0x16f1670196122fd3; 0x17fa7444e4c21a47; 0x47f624fc9efed26; 0x224114720d0d49c6 ];
      floats = [ 0x1.6f1670196122cp-3; 0x1.5ed32218226f3p-1; 0x1.842985c0c4dfep-1 ];
      split = (0xa260002de41813fL, 0xaf69910c113799acL);
      split_at =
        [ 0xec84cc88cc5fa0b6L; 0x37bfbbddd0fca5eaL; 0xaef0bb725b7f3cc8L; 0x2de2ce032c245fa7L ];
    };
  ]

let draws k f seed =
  let rng = Rng.create seed in
  List.init k (fun _ -> f rng)

let test_golden_streams () =
  List.iter
    (fun g ->
      let label what = Printf.sprintf "seed %d %s" g.seed what in
      Alcotest.(check (list int64)) (label "bits64") g.bits64 (draws 3 Rng.bits64 g.seed);
      List.iter
        (fun (what, n, want) ->
          Alcotest.(check (list int)) (label what) want (draws 4 (fun r -> Rng.int r n) g.seed);
          Alcotest.(check (list int))
            (label (what ^ " by int_array"))
            want
            (Array.to_list (Rng.int_array (Rng.create g.seed) ~len:4 n)))
        [
          ("int 7", 7, g.int7);
          ("int 1000", 1000, g.int1000);
          ("int max_int", max_int, g.int_max);
          ("int big", big, g.int_big);
        ];
      Alcotest.(check (list (float 0.0))) (label "float") g.floats
        (draws 3 (fun r -> Rng.float r 1.0) g.seed);
      let r = Rng.create g.seed in
      let child = Rng.split r in
      let c = Rng.bits64 child in
      Alcotest.(check (pair int64 int64)) (label "split") g.split (c, Rng.bits64 r);
      let r = Rng.create g.seed in
      let children = List.map (fun i -> Rng.bits64 (Rng.split_at r i)) [ 0; 1; 5 ] in
      Alcotest.(check (list int64)) (label "split_at") g.split_at (children @ [ Rng.bits64 r ]))
    goldens

(* Drawing an int allocates nothing, so generating a plan's data does not
   drive minor collections. *)
let test_int_does_not_allocate () =
  let rng = Rng.create 21 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 100_000 do
    acc := !acc + Rng.int rng (1 + (i land 1023))
  done;
  let after = Gc.minor_words () in
  ignore (Sys.opaque_identity !acc);
  Alcotest.(check (float 0.0)) "minor words" 0.0 (after -. before)

(* [int_array] is a loop of [int] draws: the same values, and the
   generator left where the loop would leave it. *)
let prop_int_array_is_int_draws =
  Helpers.qcheck_case ~name:"int_array equals successive int draws"
    (fun (seed, len, n) ->
      let n = 1 + (abs n mod 1000) in
      let a = Rng.create seed and b = Rng.create seed in
      let drawn = Rng.int_array a ~len n in
      let looped = Array.init len (fun _ -> Rng.int b n) in
      drawn = looped && Rng.bits64 a = Rng.bits64 b)
    QCheck.(triple small_int (int_bound 300) int)

(* [int_array] allocates its array and nothing else. *)
let test_int_array_allocation () =
  let rng = Rng.create 22 in
  let before = Gc.minor_words () in
  let a = Rng.int_array rng ~len:100 1000 in
  let after = Gc.minor_words () in
  ignore (Sys.opaque_identity a);
  Alcotest.(check (float 0.0)) "minor words" 101.0 (after -. before)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "split_at stability" `Quick test_split_at_stable;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int covers range" `Quick test_int_covers;
    Alcotest.test_case "int_in bounds" `Quick test_int_in;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "float mean" `Slow test_float_mean;
    Alcotest.test_case "bernoulli frequency" `Slow test_bernoulli;
    Alcotest.test_case "shuffle is permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "shuffle moves elements" `Quick test_shuffle_moves;
    Alcotest.test_case "choose stays in array" `Quick test_choose;
    Alcotest.test_case "golden streams" `Quick test_golden_streams;
    Alcotest.test_case "int draws do not allocate" `Quick test_int_does_not_allocate;
    Alcotest.test_case "int_array allocates only its array" `Quick test_int_array_allocation;
    prop_int_array_is_int_draws;
    prop_int_in_range;
    prop_split_differs;
  ]
