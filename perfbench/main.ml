(* The benchmark's entry point.

     main.exe --workload W --seed N --seconds S --trace 0|1

   Runs one workload, checks its outputs, and prints as its last line one
   JSON object: every end-to-end metric with --trace 0, every per-layer
   metric with --trace 1.  A layer a workload does not use reports 0.
   Exits 1 when any output check failed, 2 on a usage error. *)

open Bench_common

let end_to_end =
  [
    ("setup_s", "s");
    ("ns_per_tick", "ns");
    ("ns_per_tick_p90", "ns");
    ("serve_ms_p50", "ms");
    ("serve_ms_p99", "ms");
    ("goodput_rps", "1/s");
  ]

let per_layer =
  List.map (fun n -> (Printf.sprintf "core.ns_per_tick.n%d" n, "ns")) [ 10; 20; 50; 100; 150; 200 ]
  @ List.concat_map
      (fun p ->
        [ (Printf.sprintf "core.phase.%s_ms" p, "ms"); (Printf.sprintf "core.phase.%s_ticks" p, "count") ])
      [ "ii"; "sa"; "heuristic"; "local" ]
  @ [
      ("core.minor_words_per_tick", "words");
      ("core.moves.accept_frac", "ratio");
      ("core.moves.invalid_frac", "ratio");
      ("core.portfolio_round_ms_p50", "ms");
      ("core.cost_vs_lb_geomean", "ratio");
      ("core.ticks", "count");
      ("core.neighbors_evaluated", "count");
      ("core.budget_charges", "count");
      ("cost.eval_ns_per_step", "ns");
      ("cost.recost_steps", "count");
      ("service.fingerprint_us_p50", "us");
      ("service.cache_lookup_us_p50", "us");
      ("service.service_ms_p50.hit", "ms");
      ("service.service_ms_p99.cold", "ms");
      ("service.cache_hit_frac", "ratio");
      ("service.cache_evictions", "count");
      ("service.queue_wait_ms_p50", "ms");
      ("service.queue_wait_ms_p99", "ms");
      ("service.cold_ticks", "count");
      ("service.max_queue_depth", "count");
      ("service.shed", "count");
      ("service.worker_busy_frac", "ratio");
      ("exec.run_ms", "ms");
      ("exec.rows_per_s", "1/s");
      ("exec.probe_comparisons_per_row", "ratio");
      ("exec.datagen_ms", "ms");
      ("exec.truncated", "count");
      ("feedback.measure_ms", "ms");
      ("feedback.qerror_mean", "ratio");
      ("querygen.generate_ms", "ms");
      ("loadgen.lag_ms_p99", "ms");
      ("obs.overhead_frac", "ratio");
      ("obs.span_coverage", "ratio");
      ("gc.minor_collections", "1/kop");
      ("gc.major_collections", "1/kop");
      ("gc.top_heap_mb", "MB");
    ]
  @ List.map (fun l -> (l ^ ".self_frac", "ratio")) layers

let workloads =
  [
    ("opt-narrow", fun ctx -> Wl_opt.run ctx Wl_opt.narrow);
    ("opt-wide", fun ctx -> Wl_opt.run ctx Wl_opt.wide);
    ("serve-zipf", Wl_serve.run);
    ("feedback-exec", Wl_feedback.run);
  ]

let usage msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline
    "usage: main.exe --workload (opt-narrow|opt-wide|serve-zipf|feedback-exec) \
     --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | x :: _ -> usage ("unexpected argument " ^ x)
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage ("missing --" ^ k) in
  let int_arg k =
    match int_of_string_opt (get k) with Some v -> v | None -> usage ("--" ^ k ^ " wants an integer")
  in
  let workload = get "workload" in
  if not (List.mem_assoc workload workloads) then usage ("unknown workload " ^ workload);
  let seconds = int_arg "seconds" in
  if seconds < 1 then usage "--seconds must be at least 1";
  let traced =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage "--trace wants 0 or 1"
  in
  { workload; seed = int_arg "seed"; seconds = float_of_int seconds; traced }

let json_number b v =
  Buffer.add_string b (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")

let () =
  let ctx = parse_args () in
  let report = (List.assoc ctx.workload workloads) ctx in
  let mismatched = reconcile_cells ctx report.cells in
  List.iter
    (fun k -> record_op ~ok:false ("deterministic cell " ^ k ^ " differs from an earlier run"))
    mismatched;
  List.iter (fun (k, v) -> Printf.printf "cell %s %s\n" k v) report.cells;
  if ctx.traced then
    Printf.printf "trace %s\n" (write_trace ctx (Obs.spans ()));
  let wanted, values = if ctx.traced then (per_layer, report.per_layer) else (end_to_end, report.e2e) in
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k wanted) then failwith ("metric not declared: " ^ k))
    values;
  let b = Buffer.create 4096 in
  let correct = tally.failed = 0 in
  List.iter (fun n -> Printf.printf "check failed: %s\n" n) (List.rev tally.notes);
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" correct
    tally.attempted tally.failed;
  List.iteri
    (fun i (name, unit) ->
      let v =
        match List.assoc_opt name values with
        | Some v -> v
        | None when ctx.traced -> 0.0
        | None -> failwith ("end-to-end metric missing: " ^ name)
      in
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": {\"value\": " name;
      json_number b v;
      Printf.bprintf b ", \"unit\": \"%s\"}" unit)
    wanted;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b);
  exit (if correct then 0 else 1)
