open Ljqo_core

let test_basic_charging () =
  let b = Budget.create ~ticks:100 () in
  Budget.charge b 30;
  Alcotest.(check int) "used" 30 (Budget.used b);
  Alcotest.(check (option int)) "remaining" (Some 70) (Budget.remaining b);
  Alcotest.(check bool) "not exhausted" false (Budget.exhausted b)

let test_exhaustion () =
  let b = Budget.create ~ticks:10 () in
  Budget.charge b 5;
  (match Budget.charge b 5 with
  | exception Budget.Exhausted -> ()
  | () -> Alcotest.fail "reaching the limit must raise");
  Alcotest.(check bool) "exhausted" true (Budget.exhausted b);
  match Budget.charge b 1 with
  | exception Budget.Exhausted -> ()
  | () -> Alcotest.fail "dead budget must keep raising"

let test_unlimited () =
  let b = Budget.unlimited () in
  Budget.charge b 1_000_000;
  Alcotest.(check (option int)) "no limit" None (Budget.limit b);
  Alcotest.(check (option int)) "no remaining" None (Budget.remaining b)

let test_checkpoints_fire_in_order () =
  let b = Budget.create ~checkpoints:[ 30; 10; 20 ] ~ticks:100 () in
  let fired = ref [] in
  Budget.set_checkpoint_callback b (fun c -> fired := c :: !fired);
  Budget.charge b 9;
  Alcotest.(check (list int)) "nothing yet" [] (List.rev !fired);
  Budget.charge b 1;
  Alcotest.(check (list int)) "first" [ 10 ] (List.rev !fired);
  Budget.charge b 25;
  Alcotest.(check (list int)) "two crossed at once" [ 10; 20; 30 ] (List.rev !fired)

let test_checkpoint_at_limit () =
  let b = Budget.create ~checkpoints:[ 10 ] ~ticks:10 () in
  let fired = ref [] in
  Budget.set_checkpoint_callback b (fun c -> fired := c :: !fired);
  (try Budget.charge b 10 with Budget.Exhausted -> ());
  Alcotest.(check (list int)) "fires before exhaustion" [ 10 ] !fired

let test_checkpoints_beyond_limit_dropped () =
  let b = Budget.create ~checkpoints:[ 5; 500 ] ~ticks:10 () in
  let fired = ref [] in
  Budget.set_checkpoint_callback b (fun c -> fired := c :: !fired);
  (try Budget.charge b 10 with Budget.Exhausted -> ());
  Alcotest.(check (list int)) "only reachable checkpoints" [ 5 ] (List.rev !fired)

(* The deadline is read through an injectable clock, and only every
   [deadline_check_stride] charges, so the tests drive both knobs
   explicitly. *)
let test_deadline_fires () =
  let now = ref 0.0 in
  let b = Budget.create ~deadline:1.0 ~clock:(fun () -> !now) ~ticks:0 () in
  for _ = 1 to 10 * Budget.deadline_check_stride do
    Budget.charge b 1
  done;
  Alcotest.(check bool) "alive within the deadline" false (Budget.deadline_hit b);
  now := 2.0;
  let fire () =
    for _ = 1 to Budget.deadline_check_stride do
      Budget.charge b 1
    done
  in
  (match fire () with
  | exception Budget.Deadline_exceeded -> ()
  | () -> Alcotest.fail "elapsed deadline not enforced");
  Alcotest.(check bool) "deadline_hit" true (Budget.deadline_hit b);
  match Budget.charge b 1 with
  | exception Budget.Deadline_exceeded -> ()
  | () -> Alcotest.fail "dead budget must keep raising Deadline_exceeded"

let test_deadline_distinct_from_exhaustion () =
  let b = Budget.create ~ticks:10 () in
  (try Budget.charge b 10 with Budget.Exhausted -> ());
  Alcotest.(check bool) "tick death is not a deadline hit" false
    (Budget.deadline_hit b);
  (* and with a generous deadline, ticks still exhaust first *)
  let now = ref 0.0 in
  let b = Budget.create ~deadline:1e9 ~clock:(fun () -> !now) ~ticks:5 () in
  (match Budget.charge b 5 with
  | exception Budget.Exhausted -> ()
  | () -> Alcotest.fail "tick limit must still apply under a deadline");
  Alcotest.(check bool) "exhausted, not timed out" false (Budget.deadline_hit b)

let test_deadline_checked_on_stride_only () =
  let reads = ref 0 in
  let clock () =
    incr reads;
    0.0
  in
  let b = Budget.create ~deadline:1.0 ~clock ~ticks:0 () in
  let reads_at_create = !reads in
  (* The first charge always checks the clock, so an already-expired
     deadline is caught immediately rather than a whole stride later. *)
  Budget.charge b 1;
  Alcotest.(check int) "first charge reads the clock" (reads_at_create + 1) !reads;
  for _ = 1 to Budget.deadline_check_stride - 1 do
    Budget.charge b 1
  done;
  Alcotest.(check int) "no clock read inside the stride" (reads_at_create + 1)
    !reads;
  Budget.charge b 1;
  Alcotest.(check int) "next read at the stride boundary" (reads_at_create + 2)
    !reads

(* Regression: an expired deadline (zero, negative, or elapsed during setup)
   used to survive the first [deadline_check_stride - 1 = 255] charges
   because the countdown started at the full stride.  It must fire on the
   very first charge. *)
let test_expired_deadline_fires_on_first_charge () =
  List.iter
    (fun deadline ->
      let now = ref 5.0 in
      let b = Budget.create ~deadline ~clock:(fun () -> !now) ~ticks:0 () in
      (match Budget.charge b 1 with
      | exception Budget.Deadline_exceeded -> ()
      | () ->
        Alcotest.failf "deadline %g must fire on the very first charge" deadline);
      Alcotest.(check bool) "deadline_hit" true (Budget.deadline_hit b))
    [ 0.0; -3.0 ]

let test_deadline_elapsed_during_setup_fires_immediately () =
  let now = ref 0.0 in
  let b = Budget.create ~deadline:1.0 ~clock:(fun () -> !now) ~ticks:0 () in
  (* The deadline passes between creation and the first charge (e.g. slow
     query setup); the first charge must not run 255 estimation steps. *)
  now := 2.0;
  match Budget.charge b 1 with
  | exception Budget.Deadline_exceeded -> ()
  | () -> Alcotest.fail "deadline elapsed during setup not caught immediately"

let test_ticks_for_limit () =
  Alcotest.(check int) "t*N^2*kappa"
    (int_of_float (1.5 *. 400.0 *. float_of_int Budget.default_ticks_per_unit))
    (Budget.ticks_for_limit ~t_factor:1.5 ~n_joins:20 ());
  Alcotest.(check int) "custom kappa" 9000
    (Budget.ticks_for_limit ~ticks_per_unit:10 ~t_factor:9.0 ~n_joins:10 ());
  Alcotest.(check bool) "at least one tick" true
    (Budget.ticks_for_limit ~ticks_per_unit:1 ~t_factor:0.0001 ~n_joins:1 () >= 1)

(* t·N²·κ past max_int used to wrap through int_of_float, and [max 1] then
   made the wrap a 1-tick budget. *)
let test_ticks_for_limit_saturates () =
  List.iter
    (fun t_factor ->
      Alcotest.(check int)
        (Printf.sprintf "t = %g" t_factor)
        Budget.max_ticks
        (Budget.ticks_for_limit ~t_factor ~n_joins:20 ()))
    [ infinity; 1e300; 1e20 ];
  Alcotest.(check int) "just below the cap is exact" (Budget.max_ticks - 1)
    (Budget.ticks_for_limit ~ticks_per_unit:1
       ~t_factor:(float_of_int (Budget.max_ticks - 1))
       ~n_joins:1 ());
  (* The cap survives the fractional scaling of route budgets. *)
  List.iter
    (fun f ->
      let scaled = int_of_float (f *. float_of_int Budget.max_ticks) in
      Alcotest.(check bool)
        (Printf.sprintf "scaled by %g" f)
        true
        (scaled > 0 && scaled <= Budget.max_ticks))
    [ 0.1; 0.5; 1.0 ]

let suite =
  [
    Alcotest.test_case "basic charging" `Quick test_basic_charging;
    Alcotest.test_case "exhaustion" `Quick test_exhaustion;
    Alcotest.test_case "unlimited" `Quick test_unlimited;
    Alcotest.test_case "checkpoints fire in order" `Quick test_checkpoints_fire_in_order;
    Alcotest.test_case "checkpoint at the limit" `Quick test_checkpoint_at_limit;
    Alcotest.test_case "checkpoints beyond limit dropped" `Quick
      test_checkpoints_beyond_limit_dropped;
    Alcotest.test_case "deadline fires" `Quick test_deadline_fires;
    Alcotest.test_case "deadline distinct from exhaustion" `Quick
      test_deadline_distinct_from_exhaustion;
    Alcotest.test_case "deadline checked on stride only" `Quick
      test_deadline_checked_on_stride_only;
    Alcotest.test_case "expired deadline fires on first charge" `Quick
      test_expired_deadline_fires_on_first_charge;
    Alcotest.test_case "deadline elapsed during setup fires immediately" `Quick
      test_deadline_elapsed_during_setup_fires_immediately;
    Alcotest.test_case "ticks_for_limit" `Quick test_ticks_for_limit;
    Alcotest.test_case "ticks_for_limit saturates" `Quick
      test_ticks_for_limit_saturates;
  ]
