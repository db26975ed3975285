(* Execution-grounded estimation feedback.

   The pipeline has two halves:

   - [observe] runs a plan through the hash-join executor and keeps the
     ground truth (per-depth output rows, truncation point).

   - [measure] compares the observation against [Plan_cost.eval]'s
     estimated intermediate cardinalities, under the calibration it is
     given, and records q-errors into the obs histograms.

   Both depend only on their arguments, and the obs counters and histograms
   they record into are atomic adds, so [run_spec] runs each grid item
   through optimize, observe and measure in one parallel pass, and its
   results and totals are bit-identical across job counts.

   Q-error sample alignment: [Executor.cardinalities] element [i] and
   [Plan_cost.eval(...).cards.(i)] both describe the intermediate after
   position [i] (index 0 = the first relation alone).  Base cardinalities
   are exact by construction of [Relation_data] (up to integer rounding),
   so depth 0 carries no information and samples start at depth 1: every
   recorded q-error is estimation error of the selectivity model, which is
   exactly what calibration can correct. *)

open Ljqo_catalog
module Obs = Ljqo_obs.Obs
module Plan_cost = Ljqo_cost.Plan_cost
module Executor = Ljqo_exec.Executor
module Relation_data = Ljqo_exec.Relation_data
module Benchmark = Ljqo_querygen.Benchmark

type sample = {
  depth : int;  (* join depth, >= 1 *)
  edges : int;  (* join edges inside the placed prefix at this depth *)
  est : float;
  act : float;
  qerror : float;
}

type observed = {
  plan : Ljqo_core.Plan.t;
  act_cards : float array;  (* index 0 = first relation; short when truncated *)
  truncated_at : int option;  (* join depth of the step that overflowed *)
  result_rows : int option;  (* None when truncated *)
}

type measurement = {
  samples : sample list;  (* in depth order, depths >= 1 *)
  mean_qerror : float;  (* 1.0 when no samples *)
  cost_ratio : float option;  (* None for truncated executions *)
  m_truncated_at : int option;
}

let qerror = Plan_cost.qerror

(* Histogram values are milli-q-errors: q = 1 records as 1000, so three
   log-bucket decades of resolution sit below q = 10 where estimator
   quality actually differentiates. *)
let milli_cap = 1e15

let milli q = int_of_float (Float.min (q *. 1000.0) milli_cap)

let depth_hist d =
  if d <= 1 then Obs.Feedback_qerror_d1
  else if d = 2 then Obs.Feedback_qerror_d2
  else if d = 3 then Obs.Feedback_qerror_d3
  else Obs.Feedback_qerror_d4plus

let observe ?max_rows query ~data plan =
  Obs.bump Obs.Feedback_plans_executed;
  let acts = ref [] in
  let on_step (s : Executor.step_stat) =
    acts := float_of_int s.output_rows :: !acts
  in
  let act_cards first_card =
    Array.of_list (float_of_int first_card :: List.rev !acts)
  in
  match Executor.run ?max_rows ~on_step query ~data plan with
  | result ->
    {
      plan;
      act_cards = act_cards result.first_card;
      truncated_at = None;
      result_rows = Some result.row_count;
    }
  | exception Executor.Result_too_large _ ->
    (* The completed prefix is what [on_step] saw; the overflowing step is
       the next depth.  Count it here — the batch goes on.  The executor
       validated the plan before running it, so [plan.(0)] is in range. *)
    Obs.bump Obs.Feedback_result_too_large;
    let act_cards = act_cards (Relation_data.cardinality data.(plan.(0))) in
    {
      plan;
      act_cards;
      truncated_at = Some (Array.length act_cards);
      result_rows = None;
    }

(* Cumulative join-edge count inside the placed prefix, per depth: how many
   effective edge selectivities were folded into the estimate at that
   depth — the regressor the calibration fit uses. *)
let cumulative_edges query plan =
  let n = Array.length plan in
  let graph = Query.graph query in
  let placed = Array.make (Query.n_relations query) false in
  placed.(plan.(0)) <- true;
  let edges = Array.make n 0 in
  let total = ref 0 in
  for i = 1 to n - 1 do
    let r = plan.(i) in
    List.iter
      (fun (k, _) -> if placed.(k) then incr total)
      (Join_graph.neighbors graph r);
    placed.(r) <- true;
    edges.(i) <- !total
  done;
  edges

let measure ?calibration ~model query ~data obs =
  let est = Plan_cost.eval ?calibration model query obs.plan in
  let edges = cumulative_edges query obs.plan in
  let n_act = Array.length obs.act_cards in
  let depths = min n_act (Array.length est.cards) in
  let samples = ref [] in
  let sum = ref 0.0 in
  for d = depths - 1 downto 1 do
    let e = est.cards.(d) and a = obs.act_cards.(d) in
    let q = qerror ~est:e ~act:a in
    Obs.hist_record (depth_hist d) (milli q);
    sum := !sum +. q;
    samples := { depth = d; edges = edges.(d); est = e; act = a; qerror = q } :: !samples
  done;
  let cost_ratio =
    match obs.truncated_at with
    | Some _ -> None
    | None ->
      (* Actual-cost proxy: the same model's join-cost formula re-priced
         with the observed cardinalities, so the ratio isolates estimation
         error from cost-formula choice. *)
      let module M = (val model : Ljqo_cost.Cost_model.S) in
      let actual = ref 0.0 in
      for i = 1 to depths - 1 do
        let r = obs.plan.(i) in
        let input : Ljqo_cost.Cost_model.join_input =
          {
            outer_card = obs.act_cards.(i - 1);
            inner_card = float_of_int (Relation_data.cardinality data.(r));
            inner_distinct = Query.distinct_values query r;
            output_card = Plan_cost.clamp_card obs.act_cards.(i);
            cost = 0.0;
          }
        in
        M.join_cost ~is_first:(i = 1)
          ~is_cross:(edges.(i) = (if i = 1 then 0 else edges.(i - 1)))
          input;
        actual := !actual +. Plan_cost.clamp_cost input.cost
      done;
      let ratio = qerror ~est:est.total ~act:!actual in
      Obs.hist_record Obs.Feedback_cost_ratio (milli ratio);
      Some ratio
  in
  let count = depths - 1 in
  {
    samples = !samples;
    mean_qerror = (if count <= 0 then 1.0 else !sum /. float_of_int count);
    cost_ratio;
    m_truncated_at = obs.truncated_at;
  }

(* ------------------------------------------------------------------ *)
(* Workload runs: one benchmark variation end to end.                  *)

type run = { n_joins : int; rep : int; measurement : measurement }

(* Deterministic per-query stream seeds: FNV-1a-style mixing of the base
   seed with the grid coordinates and a stream tag, so query generation,
   optimization and data generation never share a stream and reordering the
   grid cannot alias two streams. *)
let mix seed ~n ~rep ~stream =
  let h = ref (0x0bf29ce484222325 lxor seed) in
  let fold k =
    h := !h lxor k;
    h := !h * 0x100000001b3
  in
  fold n;
  fold rep;
  fold stream;
  !h land max_int

let run_spec ?jobs ?max_rows ?sel_factor ~model ~method_ ~t_factor ~ns ~per_n
    ~seed spec =
  if per_n < 1 then invalid_arg "Feedback.run_spec: per_n must be >= 1";
  List.iter
    (fun n -> if n < 1 then invalid_arg "Feedback.run_spec: ns must be >= 1")
    ns;
  let calibration = Option.map (fun f -> { Plan_cost.sel_factor = f }) sel_factor in
  let items =
    Array.of_list
      (List.concat_map (fun n -> List.init per_n (fun rep -> (n, rep))) ns)
  in
  (* Optimization is uncalibrated, so every [sel_factor] scores the same
     plans; only the measurement applies the calibration. *)
  let run_one (n, rep) =
    let qrng = Ljqo_stats.Rng.create (mix seed ~n ~rep ~stream:1) in
    let query = Benchmark.generate_query spec ~n_joins:n ~rng:qrng in
    let ticks = Ljqo_core.Budget.ticks_for_limit ~t_factor ~n_joins:n () in
    let r =
      Ljqo_core.Optimizer.optimize ~method_ ~model ~ticks
        ~seed:(mix seed ~n ~rep ~stream:2)
        query
    in
    let data =
      Relation_data.generate_all query
        ~rng:(Ljqo_stats.Rng.create (mix seed ~n ~rep ~stream:3))
    in
    let obs = observe ?max_rows query ~data r.plan in
    { n_joins = n; rep; measurement = measure ?calibration ~model query ~data obs }
  in
  Array.to_list (Ljqo_stats.Parallel.map_array ?jobs run_one items)

(* ------------------------------------------------------------------ *)
(* Aggregation for reports.                                            *)

module Summary = struct
  type depth_stat = {
    label : string;
    count : int;
    p50 : float;
    p95 : float;
    worst : float;
  }

  type t = {
    plans : int;
    truncated : int;
    n_samples : int;
    mean : float;
    depths : depth_stat list;
  }

  (* Nearest-rank quantile on a sorted array. *)
  let quantile sorted q =
    let n = Array.length sorted in
    if n = 0 then Float.nan
    else
      let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) k))

  let band d = if d <= 1 then 0 else if d = 2 then 1 else if d = 3 then 2 else 3

  let band_labels = [| "depth 1"; "depth 2"; "depth 3"; "depth 4+" |]

  let of_runs runs =
    let bands = Array.make 4 [] in
    let n_samples = ref 0 in
    let sum = ref 0.0 in
    let truncated = ref 0 in
    List.iter
      (fun r ->
        if r.measurement.m_truncated_at <> None then incr truncated;
        List.iter
          (fun s ->
            incr n_samples;
            sum := !sum +. s.qerror;
            bands.(band s.depth) <- s.qerror :: bands.(band s.depth))
          r.measurement.samples)
      runs;
    let depths =
      List.filter_map
        (fun b ->
          match bands.(b) with
          | [] -> None
          | vals ->
            let sorted = Array.of_list vals in
            Array.sort compare sorted;
            Some
              {
                label = band_labels.(b);
                count = Array.length sorted;
                p50 = quantile sorted 0.5;
                p95 = quantile sorted 0.95;
                worst = sorted.(Array.length sorted - 1);
              })
        [ 0; 1; 2; 3 ]
    in
    {
      plans = List.length runs;
      truncated = !truncated;
      n_samples = !n_samples;
      mean =
        (if !n_samples = 0 then 1.0 else !sum /. float_of_int !n_samples);
      depths;
    }
end
