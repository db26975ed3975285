open Ljqo_cost

(* The cost a model's [join_cost] writes for one step. *)
let price ?(is_first = false) ?(is_cross = false) join_cost ~outer ~inner ~distinct
    ~output () =
  let j : Cost_model.join_input =
    {
      outer_card = outer;
      inner_card = inner;
      inner_distinct = distinct;
      output_card = output;
      cost = Float.nan;
    }
  in
  join_cost ~is_first ~is_cross j;
  j.cost

(* --- memory model ------------------------------------------------------ *)

let test_memory_join_cost () =
  (* build 1000 + probe 100*(1 + 0.5*10) + output 1000 = 2600 *)
  let c =
    price Memory_model.join_cost
      ~outer:100.0 ~inner:1000.0 ~distinct:100.0 ~output:1000.0 ()
  in
  Helpers.check_approx "hash join cost" 2600.0 c

let test_memory_cross_product () =
  (* nested loops: probe 100*50 + output 5000 = 10000 *)
  let c =
    price Memory_model.join_cost
      ~is_cross:true ~outer:100.0 ~inner:50.0 ~distinct:10.0 ~output:5000.0 ()
  in
  Helpers.check_approx "cross product cost" 10000.0 c

let test_memory_scan_output () =
  Helpers.check_approx "scan" 123.0 (Memory_model.scan_cost ~card:123.0);
  Helpers.check_approx "output" 55.0 (Memory_model.output_cost ~card:55.0)

let test_memory_custom_params () =
  let params =
    { Memory_model.c_build = 2.0; c_probe = 3.0; c_compare = 0.0; c_output = 1.0 }
  in
  let (module M) = Memory_model.make params in
  let c =
    price M.join_cost ~outer:10.0 ~inner:100.0 ~distinct:100.0 ~output:20.0 ()
  in
  (* 2*100 + 10*3 + 20 = 250 *)
  Helpers.check_approx "custom params" 250.0 c

let test_memory_monotone () =
  let base =
    price Memory_model.join_cost
      ~outer:100.0 ~inner:1000.0 ~distinct:100.0 ~output:1000.0 ()
  in
  let bigger_outer =
    price Memory_model.join_cost
      ~outer:200.0 ~inner:1000.0 ~distinct:100.0 ~output:1000.0 ()
  in
  let bigger_output =
    price Memory_model.join_cost
      ~outer:100.0 ~inner:1000.0 ~distinct:100.0 ~output:2000.0 ()
  in
  Alcotest.(check bool) "monotone in outer" true (bigger_outer > base);
  Alcotest.(check bool) "monotone in output" true (bigger_output > base)

(* --- disk model -------------------------------------------------------- *)

let p = Disk_model.default_params

let test_disk_pages () =
  (* 4096/128 = 32 tuples per page *)
  Helpers.check_approx "one tuple" 1.0 (Disk_model.pages p 1.0);
  Helpers.check_approx "exactly one page" 1.0 (Disk_model.pages p 32.0);
  Helpers.check_approx "spill to two" 2.0 (Disk_model.pages p 33.0);
  Helpers.check_approx "zero floor" 1.0 (Disk_model.pages p 0.0)

let test_disk_single_pass () =
  (* inner fits in memory: io = pages(outer) + pages(inner) + pages(out) *)
  let c =
    price Disk_model.join_cost ~outer:320.0 ~inner:640.0 ~distinct:10.0 ~output:32.0 ()
  in
  let expected_io = 10.0 +. 20.0 +. 1.0 in
  let cpu = p.Disk_model.cpu_per_tuple *. (320.0 +. 640.0 +. 32.0) in
  Helpers.check_approx "single pass" (expected_io +. cpu) c

let test_disk_partitioned () =
  (* inner beyond memory_pages (256 pages = 8192 tuples): factor 3 *)
  let inner = 320000.0 in
  let outer = 3200.0 in
  let c =
    price Disk_model.join_cost ~outer ~inner ~distinct:10.0 ~output:32.0 ()
  in
  let expected_io = (3.0 *. (10000.0 +. 100.0)) +. 1.0 in
  let cpu = p.Disk_model.cpu_per_tuple *. (outer +. inner +. 32.0) in
  Helpers.check_approx "partitioned" (expected_io +. cpu) c

let test_disk_threshold () =
  (* crossing the memory boundary must jump the cost *)
  let fits =
    price Disk_model.join_cost
      ~outer:32.0 ~inner:(256.0 *. 32.0) ~distinct:10.0 ~output:32.0 ()
  in
  let spills =
    price Disk_model.join_cost
      ~outer:32.0 ~inner:(257.0 *. 32.0) ~distinct:10.0 ~output:32.0 ()
  in
  Alcotest.(check bool) "spill is costlier" true (spills > fits *. 2.0)

let test_disk_scan_output () =
  Helpers.check_approx "scan pages" 2.0 (Disk_model.scan_cost ~card:64.0);
  Helpers.check_approx "output pages" 1.0 (Disk_model.output_cost ~card:10.0)

(* Both models write each [Float.max c x] of their formulas as
   [if x <= c then c else x].  The two forms agree bit for bit, also where
   they could part: NaN, signed zeros, infinities and the bound itself. *)
let edge_values =
  [ Float.nan; -0.0; 0.0; 0.5; 1.0; 1.5; 32.0; 33.0; Float.infinity; Float.neg_infinity ]

let test_compare_forms () =
  let check what x expected got =
    if not (Helpers.same_bits expected got) then
      Alcotest.failf "%s at %h: %h, Float.max form %h" what x got expected
  in
  let m = Memory_model.default_params in
  List.iter
    (fun d ->
      let chain = 1000.0 /. Float.max 1.0 d in
      check "memory join cost" d
        ((m.c_build *. 1000.0)
        +. (100.0 *. (m.c_probe +. (m.c_compare *. chain)))
        +. (m.c_output *. 1000.0))
        (price Memory_model.join_cost ~outer:100.0 ~inner:1000.0 ~distinct:d
           ~output:1000.0 ()))
    edge_values;
  let per_page = float_of_int (p.page_bytes / p.tuple_bytes) in
  List.iter
    (fun card ->
      check "disk pages" card
        (Float.max 1.0 (Float.round (ceil (Float.max 0.0 card /. per_page))))
        (Disk_model.pages p card))
    edge_values

let prop_both_models_nonnegative =
  Helpers.qcheck_case ~name:"join costs are nonnegative and finite"
    (fun (a, (b, c)) ->
      let outer = 1.0 +. Float.abs a
      and inner = 1.0 +. Float.abs b
      and output = 1.0 +. Float.abs c in
      let distinct = Float.max 1.0 (inner /. 10.0) in
      let cm = price Memory_model.join_cost ~outer ~inner ~distinct ~output ()
      and cd = price Disk_model.join_cost ~outer ~inner ~distinct ~output () in
      cm >= 0.0 && cd >= 0.0 && Float.is_finite cm && Float.is_finite cd)
    QCheck.(pair (float_bound_exclusive 1e18) (pair (float_bound_exclusive 1e18) (float_bound_exclusive 1e18)))

let suite =
  [
    Alcotest.test_case "memory join cost" `Quick test_memory_join_cost;
    Alcotest.test_case "memory cross product" `Quick test_memory_cross_product;
    Alcotest.test_case "memory scan/output" `Quick test_memory_scan_output;
    Alcotest.test_case "memory custom params" `Quick test_memory_custom_params;
    Alcotest.test_case "memory monotone" `Quick test_memory_monotone;
    Alcotest.test_case "disk pages" `Quick test_disk_pages;
    Alcotest.test_case "disk single pass" `Quick test_disk_single_pass;
    Alcotest.test_case "disk partitioned" `Quick test_disk_partitioned;
    Alcotest.test_case "disk memory threshold" `Quick test_disk_threshold;
    Alcotest.test_case "disk scan/output" `Quick test_disk_scan_output;
    Alcotest.test_case "compare forms match Float.max" `Quick test_compare_forms;
    prop_both_models_nonnegative;
  ]
