(* Golden optimizer outputs.  Fixed-seed plans, costs and tick counts are
   the spec a performance change must keep bit for bit; perfbench only
   compares runs within one checkout, so these constants pin them across
   commits.  Each row is (method, plan, cost as %h, ticks_used).  The plans
   of the 151-relation query are pinned by the MD5 of their text (the ids
   joined by single spaces), which keeps the rows short.  The constants were
   printed by earlier commits and must not be regenerated to make a change
   pass; the file uses no test helpers beyond the model, so it ports to an
   older commit by changing only how the calibration is passed. *)

open Ljqo_core
module Qgen = Ljqo_querygen.Benchmark

let model = Helpers.memory_model

let query spec ~n_joins seed =
  Qgen.generate_query spec ~n_joins ~rng:(Ljqo_stats.Rng.create seed)

let dense =
  List.find (fun (s : Qgen.spec) -> s.name = "graph-dense") Qgen.variations

let plan_text p = String.concat " " (Array.to_list (Array.map string_of_int p))

let run ?calibration ~t_factor q m =
  let ticks = Optimizer.time_limit_ticks ~t_factor ~query:q () in
  Optimizer.optimize ?calibration ~method_:m ~model ~ticks ~seed:7 q

(* default spec, N = 20, t = 1 *)
let narrow_golden =
  [
    ("II", "16 11 4 14 5 3 2 10 9 12 8 7 17 1 6 20 0 15 19 18 13", "0x1.7398b97486b0bp+14", 24010);
    ("SA", "15 6 20 0 19 1 2 3 5 4 14 13 11 18 10 8 16 9 12 17 7", "0x1.d7fdd99a77971p+14", 24012);
    ("SAA", "6 15 19 7 8 2 3 20 4 11 18 16 5 9 10 17 12 0 14 1 13", "0x1.644b97f0b2453p+15", 24004);
    ("SAK", "6 20 7 15 19 8 2 3 1 4 5 0 11 9 16 10 17 12 14 18 13", "0x1.98aedd8c74edep+14", 24013);
    ("IAI", "16 11 3 2 8 5 9 4 7 13 17 12 14 6 15 19 1 20 10 0 18", "0x1.815fdac282faep+14", 24002);
    ("IKI", "5 3 2 8 1 11 4 7 0 14 6 17 20 15 10 16 9 19 18 12 13", "0x1.159396965629ap+14", 24002);
    ("IAL", "16 11 3 2 8 5 9 4 7 13 17 12 14 6 15 19 1 20 10 0 18", "0x1.815fdac282faep+14", 24002);
    ("AGI", "16 11 4 14 5 3 2 10 9 12 8 7 17 1 6 20 0 15 19 18 13", "0x1.7398b97486b0bp+14", 24002);
    ("KBI", "16 11 4 14 5 3 2 10 9 12 8 7 17 1 6 20 0 15 19 18 13", "0x1.7398b97486b0bp+14", 24007);
    ("2PO", "16 11 4 14 5 3 2 10 9 12 8 7 17 1 6 20 0 15 19 18 13", "0x1.7398b97486b0bp+14", 24010);
    ("portfolio", "12 9 5 3 4 11 2 13 1 16 0 8 14 6 20 15 19 7 18 17 10", "0x1.4f3508dd09683p+14", 24134);
  ]

(* graph-dense spec, N = 150 (past the two inline bitset words), t = 0.05 *)
let wide_golden =
  [
    ("II", "ae7f1a692f4b66fdf918e427dbd81c92", "0x1.b3b5e69e7984cp+16", 67522);
    ("SA", "c191fbf7ea5478d9ff43378946b27e21", "0x1.6280edb8f3f9ep+31", 67500);
    ("SAA", "52008657840ec640dd497c0a5b7f4b07", "0x1.19ccc8cf6ffe3p+17", 67528);
    ("SAK", "3310d11a5bea3e486b4dd0e3ec68c106", "0x1.b703381cba27ap+16", 67511);
    ("IAI", "14797952f0377a98ac66799ad924b793", "0x1.11e3492f19a53p+17", 67633);
    ("IKI", "d2e2c4fc49572d8a975fd91651f325b8", "0x1.b20c3e732e7eap+16", 67511);
    ("IAL", "14797952f0377a98ac66799ad924b793", "0x1.11e3492f19a53p+17", 67633);
    ("AGI", "802523dab3e93e2af271ec20cbb7e5b3", "0x1.79fdf1ad12345p+17", 67517);
    ("KBI", "05df50e98df1a03dcc72648a7e7b379c", "0x1.b320e7649f157p+16", 67500);
    ("2PO", "ae7f1a692f4b66fdf918e427dbd81c92", "0x1.b3b5e69e7984cp+16", 67522);
    ("portfolio", "a06b08da8eb8583527f9980c06f6e832", "0x1.f9a9c250db0f1p+16", 68589);
  ]

let check_row ~label ~plan_key (name, plan, cost, ticks) (r : Optimizer.result) =
  let msg what = Printf.sprintf "%s %s %s" label name what in
  Alcotest.(check string) (msg "plan") plan (plan_key r.plan);
  Alcotest.(check string) (msg "cost") cost (Printf.sprintf "%h" r.cost);
  Alcotest.(check int) (msg "ticks_used") ticks r.ticks_used

let method_named name =
  match Methods.of_name name with
  | Some m -> m
  | None -> Alcotest.failf "unknown method %s" name

(* Every selectable method is pinned, and nothing beyond them: a new
   selectable method must get a row. *)
let check_table ?calibration ~label ~plan_key ~t_factor q golden =
  Alcotest.(check (list string))
    (label ^ " covers Methods.selectable")
    (List.map Methods.name Methods.selectable)
    (List.map (fun (name, _, _, _) -> name) golden);
  List.iter
    (fun ((name, _, _, _) as row) ->
      check_row ~label ~plan_key row (run ?calibration ~t_factor q (method_named name)))
    golden

let test_narrow () =
  check_table ~label:"default N=20" ~plan_key:plan_text ~t_factor:1.0
    (query Qgen.default ~n_joins:20 2024)
    narrow_golden

let test_wide () =
  check_table ~label:"graph-dense N=150"
    ~plan_key:(fun p -> Digest.to_hex (Digest.string (plan_text p)))
    ~t_factor:0.05
    (query dense ~n_joins:150 2025)
    wide_golden

(* default spec, N = 20, t = 1, every effective edge selectivity scaled by
   1.7: the calibration reaches every method's costing, its heuristics and
   the portfolio's replicates. *)
let calibrated_golden =
  [
    ("II", "20 6 15 19 7 8 2 1 3 0 4 11 14 17 16 5 10 9 12 18 13", "0x1.a031c4af54622p+18", 24000);
    ("SA", "6 20 0 15 19 1 2 8 3 4 11 18 17 14 7 16 5 9 12 10 13", "0x1.3fc93d6d6767dp+18", 24006);
    ("SAA", "8 7 2 3 4 5 1 17 6 20 15 14 9 19 11 0 12 16 13 18 10", "0x1.7e1ae3dac118cp+18", 24005);
    ("SAK", "15 6 19 7 20 8 2 1 3 5 4 14 10 11 18 17 16 9 12 13 0", "0x1.e0213963aed5ep+17", 24005);
    ("IAI", "3 2 8 4 17 5 7 11 9 16 6 1 15 14 19 0 20 10 12 18 13", "0x1.07fc9a2b37742p+17", 24004);
    ("IKI", "20 6 15 19 7 8 2 1 3 5 4 17 18 11 9 14 12 16 0 10 13", "0x1.5e9c51caf7cddp+17", 24015);
    ("IAL", "3 2 8 4 17 5 7 11 9 16 6 1 15 14 19 0 20 10 12 18 13", "0x1.07fc9a2b37742p+17", 24004);
    ("AGI", "20 6 15 19 7 8 2 1 3 0 4 11 14 17 16 5 10 9 12 18 13", "0x1.a031c4af54622p+18", 24018);
    ("KBI", "20 6 15 19 7 8 2 1 3 0 4 11 14 17 16 5 10 9 12 18 13", "0x1.a031c4af54622p+18", 24006);
    ("2PO", "20 6 15 19 7 8 2 1 3 0 4 11 14 17 16 5 10 9 12 18 13", "0x1.a031c4af54622p+18", 24000);
    ("portfolio", "12 9 5 3 4 14 2 11 13 1 16 10 8 0 17 6 20 15 19 7 18", "0x1.92b9f92b4cef8p+18", 24083);
  ]

let test_calibrated () =
  check_table ~calibration:{ sel_factor = 1.7 } ~label:"calibrated default N=20"
    ~plan_key:plan_text ~t_factor:1.0
    (query Qgen.default ~n_joins:20 2024)
    calibrated_golden

let test_exhaustive () =
  let e = Exhaustive.optimize model (query Qgen.default ~n_joins:8 2026) in
  Alcotest.(check string) "plan" "4 2 3 1 7 8 0 5 6" (plan_text e.plan);
  Alcotest.(check string) "cost" "0x1.9141cf6ef1609p+17" (Printf.sprintf "%h" e.cost);
  Alcotest.(check int) "nodes expanded" 9639 e.nodes_expanded;
  Alcotest.(check int) "pruned" 4202 e.pruned

(* Every augmentation criterion, from the first and the last start of
   [Augmentation.starts]: each row is (criterion index, start, plan, summed
   charge).  Every pinned method above runs the default criterion only, so
   these rows pin Table 1's other columns.  Plans of the 151-relation query
   are pinned by MD5, as above. *)
let narrow_criteria_golden =
  [
    (1, 20, "20 6 0 1 15 19 7 8 2 3 5 14 10 11 16 4 17 13 18 9 12", 66);
    (1, 9, "9 5 12 14 10 3 2 1 0 8 7 6 20 15 19 11 16 4 17 13 18", 77);
    (2, 20, "20 6 15 7 8 2 3 5 4 11 9 14 0 1 18 13 10 17 12 16 19", 113);
    (2, 9, "9 5 3 4 2 11 8 7 6 15 14 0 1 18 13 10 17 12 16 19 20", 129);
    (3, 20, "20 6 15 18 19 7 8 2 3 4 11 17 14 1 5 9 13 12 16 10 0", 69);
    (3, 9, "9 5 13 12 3 4 11 2 8 17 14 1 16 7 6 15 18 19 10 0 20", 79);
    (4, 20, "20 6 15 19 0 18 7 8 2 1 3 5 4 11 16 14 17 10 9 12 13", 61);
    (4, 9, "9 5 12 10 13 3 2 1 8 4 11 16 14 17 7 6 20 15 19 0 18", 67);
    (5, 20, "20 6 0 1 2 8 7 3 5 4 11 16 14 17 15 19 10 18 9 12 13", 76);
    (5, 9, "9 5 12 10 13 3 2 1 8 4 11 16 14 17 7 6 20 0 15 19 18", 65);
  ]

let wide_criteria_golden =
  [
    (1, 17, "094a30a3aba0dda8dac6a74a0c82fe72", 10164);
    (1, 97, "5544f930b3ad287c0e0897efd6e244a9", 10092);
    (2, 17, "029501c6d5f10f00c12bf6a65a52b8ea", 10449);
    (2, 97, "29919eb63b112219537e710a8270ba1f", 10462);
    (3, 17, "81ade05d693b3b213a05a794578f1bb6", 10111);
    (3, 97, "0749d6153d2a5e307e520539be21cb96", 10145);
    (4, 17, "98725ec2e7eb3f195282d6b4a36bb940", 10062);
    (4, 97, "5ab629d50bd7db12afced2cfc73566fa", 9995);
    (5, 17, "67536f1c3dd1bd2a5a1c6992c8a734bc", 10056);
    (5, 97, "3010c1e984a85b99bdc73c957e07dddf", 10065);
  ]

let check_criteria ~label ~plan_key q golden =
  let starts = Augmentation.starts q in
  Alcotest.(check (list int))
    (label ^ " pins the first and the last start")
    (List.sort compare [ List.hd starts; List.nth starts (List.length starts - 1) ])
    (List.sort_uniq compare (List.map (fun (_, start, _, _) -> start) golden));
  List.iter
    (fun (index, start, plan, charge) ->
      let charged = ref 0 in
      let p =
        Augmentation.generate
          ~charge:(fun k -> charged := !charged + k)
          q (Augmentation.criterion_of_index index) ~start
      in
      let msg what = Printf.sprintf "%s criterion %d start %d %s" label index start what in
      Alcotest.(check string) (msg "plan") plan (plan_key p);
      Alcotest.(check int) (msg "summed charge") charge !charged)
    golden

let test_criteria_narrow () =
  check_criteria ~label:"default N=20" ~plan_key:plan_text
    (query Qgen.default ~n_joins:20 2024)
    narrow_criteria_golden

let test_criteria_wide () =
  check_criteria ~label:"graph-dense N=150"
    ~plan_key:(fun p -> Digest.to_hex (Digest.string (plan_text p)))
    (query dense ~n_joins:150 2025)
    wide_criteria_golden

(* Local improvement from a fixed random start, for every rung of the
   strategy ladder, with no tick limit: [one_pass] when o = 0, [improve]
   otherwise.  Each row is (c, o, improved, plan, cost as %h, ticks the
   pass or passes charged).  [improved] is [one_pass]'s verdict, or for
   [improve] whether the cost fell.  IAL's rows above stop before its local
   phase runs, so these rows pin the paper's L. *)
let narrow_local_golden =
  [
    (5, 4, true, "3 2 8 5 7 1 6 20 11 4 9 13 17 16 0 15 14 12 19 10 18", "0x1.378d4dfd602e9p+14", 105061);
    (4, 3, true, "3 2 8 5 7 1 6 20 11 4 13 0 10 17 15 19 9 16 12 14 18", "0x1.3f34d5dc69f26p+14", 26093);
    (3, 2, true, "8 2 7 3 5 1 6 20 0 11 4 10 9 16 13 17 14 15 19 12 18", "0x1.c6ce8d5a4a744p+14", 5994);
    (2, 1, true, "8 2 7 1 0 3 5 6 20 10 9 12 4 11 16 13 14 15 17 19 18", "0x1.856b701716e39p+17", 1120);
    (2, 0, true, "8 2 7 1 0 3 5 13 6 14 20 9 12 10 4 11 15 16 17 19 18", "0x1.1a38302e7734fp+23", 176);
  ]

let wide_local_golden =
  [
    (5, 4, true, "0f69d5eeb52eb979b5b871d5891dc430", "0x1.aff8fa18ab5d4p+16", 4098076);
    (4, 3, true, "70e8e7f5d47987e993c2efff930b6942", "0x1.af3d26fc99e6fp+16", 1060955);
    (3, 2, true, "5f726129dc90f33c55a1117ceba75c7c", "0x1.b1106110f523dp+16", 234615);
    (2, 1, true, "e50aaf8bec2c4ef5bfbf00f48606422a", "0x1.b7f68abfe3851p+16", 61990);
    (2, 0, true, "87e556bc4dfb3d63d54987d5228c9977", "0x1.d78b95874d7efp+16", 7499);
  ]

let local_start q = Random_plan.generate (Ljqo_stats.Rng.create 11) q

let check_local ~label ~plan_key q golden =
  List.iter
    (fun (c, o, improved, plan, cost, ticks) ->
      let ev = Evaluator.create ~query:q ~model ~ticks:0 () in
      let st = Search_state.init ev (local_start q) in
      let cost0 = Search_state.cost st and used0 = Evaluator.used ev in
      let flag =
        if o = 0 then Local_improvement.one_pass st ~c ~o
        else begin
          Local_improvement.improve st ~c ~o;
          Search_state.cost st < cost0
        end
      in
      let msg what = Printf.sprintf "%s (%d, %d) %s" label c o what in
      Alcotest.(check bool) (msg "improved") improved flag;
      Alcotest.(check string) (msg "plan") plan (plan_key (Search_state.perm st));
      Alcotest.(check string) (msg "cost") cost (Printf.sprintf "%h" (Search_state.cost st));
      Alcotest.(check int) (msg "ticks") ticks (Evaluator.used ev - used0))
    golden

(* [Local_improvement.auto] from the same start under a tick budget: each
   row is (budget, incumbent plan, incumbent cost as %h, ticks used).  A
   budget can stop a pass midway; the evaluator's incumbent is the result. *)
let narrow_auto_golden =
  [
    (5000, "8 2 7 3 1 5 6 0 20 10 9 4 11 16 13 14 12 15 17 19 18", "0x1.0ad8197a3c194p+16", 5001);
    (500000, "3 2 8 5 7 1 6 20 11 4 9 13 17 16 0 15 14 12 19 10 18", "0x1.378d4dfd602e9p+14", 105082);
  ]

let wide_auto_golden =
  [
    (5000, "51ece10f619a900c2fc9ca306826903d", "0x1.bfa86b007adebp+16", 5045);
    (500000, "4311a23443d560131410c506eaab489b", "0x1.b4c844a496b4bp+16", 500088);
  ]

let check_auto ~label ~plan_key q golden =
  List.iter
    (fun (budget, plan, cost, ticks) ->
      let ev = Evaluator.create ~query:q ~model ~ticks:budget () in
      (try Local_improvement.auto (Search_state.init ev (local_start q))
       with Budget.Exhausted | Evaluator.Converged -> ());
      let msg what = Printf.sprintf "%s auto %d %s" label budget what in
      match Evaluator.best ev with
      | None -> Alcotest.fail (msg "recorded no plan")
      | Some (c, p) ->
        Alcotest.(check string) (msg "plan") plan (plan_key p);
        Alcotest.(check string) (msg "cost") cost (Printf.sprintf "%h" c);
        Alcotest.(check int) (msg "ticks") ticks (Evaluator.used ev))
    golden

(* The SG88 baselines under two budgets, RNG seed 7: each row is (name,
   budget, best plan, its cost as %h, ticks used). *)
let narrow_baselines_golden =
  [
    ("RAND", 2000, "5 3 13 2 1 9 8 11 4 10 14 16 12 0 17 6 7 20 15 19 18", "0x1.5de025b33422ap+16", 2016);
    ("RAND", 50000, "12 9 5 3 4 2 17 8 1 7 11 10 14 13 16 6 20 0 15 19 18", "0x1.c0225d0417b1bp+14", 50001);
    ("WALK", 2000, "6 15 19 7 0 20 1 8 2 18 3 11 4 14 5 16 13 10 17 9 12", "0x1.af27787c5518dp+16", 2015);
    ("WALK", 50000, "15 6 19 0 1 2 3 4 17 11 20 7 18 5 16 10 14 9 8 13 12", "0x1.a9ee8d18e4ec3p+16", 50013);
    ("SDII", 2000, "6 15 19 20 7 8 2 0 1 18 3 4 11 16 5 10 13 14 9 17 12", "0x1.1e0d8e456827dp+15", 2013);
    ("SDII", 50000, "12 9 5 3 4 11 13 17 14 2 10 8 16 7 1 6 20 15 19 0 18", "0x1.43433d1318472p+14", 50009);
  ]

let wide_baselines_golden =
  [
    ("RAND", 2000, "a700fd489e34a7d6bff91f47a40bec0a", "0x1.c74be73aaf1f2p+16", 2114);
    ("RAND", 50000, "df5075a8a1b8dc84531b91791922d800", "0x1.ba07b8fbf1b06p+16", 50132);
    ("WALK", 2000, "7221288495011713910f754dc774e74b", "0x1.8ed33d20788afp+34", 2058);
    ("WALK", 50000, "d6ea18f95cf4b8d2c69f3fe7124da378", "0x1.8ede22fca7767p+25", 50022);
    ("SDII", 2000, "7edd8e24697c548d76a102c473309d69", "0x1.8ed33d0421627p+34", 2011);
    ("SDII", 50000, "1397c04c4c8a20b18dbe489d8a09800d", "0x1.396c2ce6eb17ep+17", 50034);
  ]

let check_baselines ~label ~plan_key q golden =
  List.iter
    (fun (name, budget, plan, cost, ticks) ->
      let b = List.find (fun b -> Baselines.name b = name) Baselines.all in
      let ev = Evaluator.create ~query:q ~model ~ticks:budget () in
      Baselines.run b ev (Ljqo_stats.Rng.create 7);
      let msg what = Printf.sprintf "%s %s %d %s" label name budget what in
      match Evaluator.best ev with
      | None -> Alcotest.fail (msg "recorded no plan")
      | Some (c, p) ->
        Alcotest.(check string) (msg "plan") plan (plan_key p);
        Alcotest.(check string) (msg "cost") cost (Printf.sprintf "%h" c);
        Alcotest.(check int) (msg "ticks") ticks (Evaluator.used ev))
    golden

let wide_key p = Digest.to_hex (Digest.string (plan_text p))

let test_local () =
  let narrow = query Qgen.default ~n_joins:20 2024 in
  let wide = query dense ~n_joins:150 2025 in
  check_local ~label:"default N=20" ~plan_key:plan_text narrow narrow_local_golden;
  check_local ~label:"graph-dense N=150" ~plan_key:wide_key wide wide_local_golden;
  check_auto ~label:"default N=20" ~plan_key:plan_text narrow narrow_auto_golden;
  check_auto ~label:"graph-dense N=150" ~plan_key:wide_key wide wide_auto_golden

let test_baselines () =
  check_baselines ~label:"default N=20" ~plan_key:plan_text
    (query Qgen.default ~n_joins:20 2024)
    narrow_baselines_golden;
  check_baselines ~label:"graph-dense N=150" ~plan_key:wide_key
    (query dense ~n_joins:150 2025)
    wide_baselines_golden

(* IAL at t = 3, the smallest tested budget at which its local phase
   changes the result (IAI's cost there is 0x1.530a055dc8cacp+14). *)
let test_ial_local_phase () =
  check_row ~label:"default N=20 t=3" ~plan_key:plan_text
    ("IAL", "3 2 8 4 11 7 14 1 5 9 13 17 12 16 6 20 0 15 19 10 18",
     "0x1.410249082a779p+14", 72005)
    (run ~t_factor:3.0 (query Qgen.default ~n_joins:20 2024) Methods.IAL)

let suite =
  [
    Alcotest.test_case "every selectable method, default N=20" `Quick test_narrow;
    Alcotest.test_case "every selectable method, graph-dense N=150" `Quick test_wide;
    Alcotest.test_case "every selectable method, calibrated default N=20" `Quick
      test_calibrated;
    Alcotest.test_case "exhaustive N=8" `Quick test_exhaustive;
    Alcotest.test_case "every augmentation criterion, default N=20" `Quick
      test_criteria_narrow;
    Alcotest.test_case "every augmentation criterion, graph-dense N=150" `Quick
      test_criteria_wide;
    Alcotest.test_case "local improvement, every strategy and auto" `Quick
      test_local;
    Alcotest.test_case "SG88 baselines" `Quick test_baselines;
    Alcotest.test_case "IAL's local phase, default N=20 t=3" `Quick
      test_ial_local_phase;
  ]
