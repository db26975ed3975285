open Ljqo_core
open Ljqo_catalog

exception Result_too_large of int

type step_stat = {
  inner_relation : int;
  output_rows : int;
  probe_comparisons : int;
}

type result = { row_count : int; steps : step_stat list; first_card : int }

(* Placed neighbours of relation [r]: the predicates that apply when [r]
   joins the current prefix. *)
let applicable_edges query ~placed r =
  List.filter_map
    (fun (other, _) -> if placed.(other) then Some other else None)
    (Join_graph.neighbors (Query.graph query) r)

(* Does row [row] (tuple indices) match inner tuple [t] of relation [r] on
   every predicate in [edges]? *)
let matches query ~data ~row ~r ~t edges =
  ignore query;
  List.for_all
    (fun k ->
      let outer_col = Relation_data.column data.(k) ~other:r in
      let inner_col = Relation_data.column data.(r) ~other:k in
      outer_col.(row.(k)) = inner_col.(t))
    edges

(* ------------------------------------------------------------------ *)
(* Per-domain scratch.                                                 *)

(* The running intermediate is columnar: [cols.(j).(k)] is the tuple index
   of the relation at plan position [j] in row [k].  A step emits only the
   outer row ([src]) and the inner tuple ([tup]) of each output row; once
   it completes, the prefix columns are gathered into [next] and the two
   column sets swap, except after the last step, whose rows only
   [iter_rows] reads.  The inner relation's build table is CSR: its tuples
   bucketed by a hash of the anchor value, [off] holding bucket offsets and
   [perm] the tuple ids, ascending within a bucket.  Arrays only grow, and
   each is used up to the current run's sizes. *)
type scratch = {
  mutable cols : int array array;
  mutable next : int array array;
  mutable src : int array;
  mutable tup : int array;  (* same length as [src] *)
  mutable emitted : int;  (* rows the running step has emitted *)
  mutable off : int array;
  mutable perm : int array;
  mutable busy : bool;  (* a run on this domain is using it *)
}

let empty () =
  {
    cols = [||];
    next = [||];
    src = [||];
    tup = [||];
    emitted = 0;
    off = [||];
    perm = [||];
    busy = false;
  }

let scratch_key = Domain.DLS.new_key empty

(* A domain keeps at most this many words of scratch between runs (8 MiB
   on 64-bit): one huge execution must not pin its memory for the life of
   the domain. *)
let retained_words_max = 1 lsl 20

let words s =
  let cols a = Array.fold_left (fun acc c -> acc + Array.length c) 0 a in
  cols s.cols + cols s.next + Array.length s.src + Array.length s.tup
  + Array.length s.off + Array.length s.perm

(* [a] if it holds [n] elements, else a larger array holding [a]'s first
   [keep]. *)
let reserve a ~keep n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 keep;
    b
  end

(* Run [f] on this domain's scratch.  A run nested inside another (an
   [on_step] callback that executes a plan) gets a scratch of its own. *)
let with_scratch f =
  let s = Domain.DLS.get scratch_key in
  if s.busy then f (empty ())
  else begin
    s.busy <- true;
    let release () =
      s.busy <- false;
      if words s > retained_words_max then Domain.DLS.set scratch_key (empty ())
    in
    match f s with
    | r ->
      release ();
      r
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      release ();
      Printexc.raise_with_backtrace e bt
  end

(* ------------------------------------------------------------------ *)
(* One join step.                                                      *)

(* Append output row (outer row [src], inner tuple [t]); the count past
   [max_rows] raises. *)
let[@inline] emit s ~max_rows src t =
  let k = s.emitted in
  if k = Array.length s.src then begin
    s.src <- reserve s.src ~keep:k (k + 1);
    s.tup <- reserve s.tup ~keep:k (k + 1)
  end;
  s.src.(k) <- src;
  s.tup.(k) <- t;
  s.emitted <- k + 1;
  if k + 1 > max_rows then raise (Result_too_large (k + 1))

(* Fibonacci hashing: the top bits of [v] times the golden ratio. *)
let[@inline] bucket ~shift v = (v * 0x4F1BBCDCBFA53E0B) lsr shift

(* Bucket the inner relation's tuples by anchor value into [s.off] /
   [s.perm]; returns the hash shift.  There are at least as many buckets as
   tuples, and bucket [b] spans [off.(b), off.(b + 1)). *)
let build_table s anchor =
  let card = Array.length anchor in
  let bits = ref 1 in
  while 1 lsl !bits < card do
    incr bits
  done;
  let nb = 1 lsl !bits and shift = 63 - !bits in
  s.off <- reserve s.off ~keep:0 (nb + 1);
  s.perm <- reserve s.perm ~keep:0 card;
  let off = s.off and perm = s.perm in
  Array.fill off 0 (nb + 1) 0;
  for t = 0 to card - 1 do
    let b = bucket ~shift anchor.(t) in
    off.(b) <- off.(b) + 1
  done;
  for b = 1 to nb - 1 do
    off.(b) <- off.(b) + off.(b - 1)
  done;
  off.(nb) <- card;
  for t = card - 1 downto 0 do
    let b = bucket ~shift anchor.(t) in
    let p = off.(b) - 1 in
    off.(b) <- p;
    perm.(p) <- t
  done;
  shift

(* Does outer row [src] match inner tuple [t] on the non-anchor predicates
   [e .. n-1]?  Predicate [e] compares [outer.(e)] at the tuple in column
   [pos.(e)] with [inner.(e)] at [t]. *)
let rec verify cols ~outer ~pos ~inner n src t e =
  e = n
  || outer.(e).(cols.(pos.(e)).(src)) = inner.(e).(t)
     && verify cols ~outer ~pos ~inner n src t (e + 1)

(* Join the [len]-row intermediate with relation [r]: emit the matching
   rows and return the probe comparisons.  [pos.(k)] is relation [k]'s plan
   position, or -1 while unplaced.  The emit order is the contract: outer
   rows in order, and for each, inner tuples in descending index (a cross
   product: ascending). *)
let join s ~max_rows query ~data ~pos ~len r =
  let inner_card = Relation_data.cardinality data.(r) in
  let placed =
    Array.fold_right
      (fun k acc -> if pos.(k) >= 0 then k :: acc else acc)
      (Join_graph.neighbor_ids (Query.graph query) r)
      []
  in
  s.emitted <- 0;
  match placed with
  | [] ->
    for src = 0 to len - 1 do
      for t = 0 to inner_card - 1 do
        emit s ~max_rows src t
      done
    done;
    0
  | anchor :: others ->
    (* Bucket the inner on the anchor predicate's column, probe with the
       outer's anchor value, then verify the remaining predicates. *)
    let inner_anchor = Relation_data.column data.(r) ~other:anchor in
    let outer_anchor = Relation_data.column data.(anchor) ~other:r in
    let shift = build_table s inner_anchor in
    let others = Array.of_list others in
    let n = Array.length others in
    let outer = Array.map (fun k -> Relation_data.column data.(k) ~other:r) others in
    let inner = Array.map (fun k -> Relation_data.column data.(r) ~other:k) others in
    let opos = Array.map (fun k -> pos.(k)) others in
    let cols = s.cols and off = s.off and perm = s.perm in
    let anchor_col = cols.(pos.(anchor)) in
    let comparisons = ref 0 in
    for src = 0 to len - 1 do
      let v = outer_anchor.(anchor_col.(src)) in
      let b = bucket ~shift v in
      for p = off.(b + 1) - 1 downto off.(b) do
        let t = perm.(p) in
        if inner_anchor.(t) = v then begin
          incr comparisons;
          if verify cols ~outer ~pos:opos ~inner n src t 0 then emit s ~max_rows src t
        end
      done
    done;
    !comparisons

(* Make the emitted rows the current intermediate, now [width + 1]
   columns wide: gather the prefix columns through [src], append [tup]. *)
let commit s ~width =
  let k = s.emitted and src = s.src in
  for j = 0 to width - 1 do
    let col = s.cols.(j) and dst = reserve s.next.(j) ~keep:0 k in
    for x = 0 to k - 1 do
      dst.(x) <- col.(src.(x))
    done;
    s.next.(j) <- dst
  done;
  let dst = reserve s.next.(width) ~keep:0 k in
  Array.blit s.tup 0 dst 0 k;
  s.next.(width) <- dst;
  let cols = s.cols in
  s.cols <- s.next;
  s.next <- cols

(* ------------------------------------------------------------------ *)
(* Plans.                                                              *)

let check_inputs query ~data plan =
  let n = Query.n_relations query in
  if not (Plan.is_permutation plan) || Array.length plan <> n then
    invalid_arg "Executor: plan is not a permutation of the query";
  if Array.length data <> n then invalid_arg "Executor: data size mismatch";
  Array.iteri
    (fun r d ->
      if Relation_data.relation d <> r then
        invalid_arg "Executor: data must be indexed by relation id")
    data

(* Hand each final row to [f] as a binding vector, reused between calls.
   The last step is not committed: a row's prefix columns are read through
   its outer row [src.(k)], its last relation's tuple from [tup.(k)]. *)
let iter_rows s plan ~len f =
  let last = Array.length plan - 1 in
  let row = Array.make (last + 1) (-1) in
  for k = 0 to len - 1 do
    if last = 0 then row.(plan.(0)) <- s.cols.(0).(k)
    else begin
      let src = s.src.(k) in
      for j = 0 to last - 1 do
        row.(plan.(j)) <- s.cols.(j).(src)
      done;
      row.(plan.(last)) <- s.tup.(k)
    end;
    f row
  done

let execute s ~max_rows ?on_step ?on_row query ~data plan =
  let n = Array.length plan in
  if Array.length s.cols < n then begin
    let widen a = Array.append a (Array.make (n - Array.length a) [||]) in
    s.cols <- widen s.cols;
    s.next <- widen s.next
  end;
  let pos = Array.make n (-1) in
  let first = plan.(0) in
  let first_card = Relation_data.cardinality data.(first) in
  let col = reserve s.cols.(0) ~keep:0 first_card in
  for t = 0 to first_card - 1 do
    col.(t) <- t
  done;
  s.cols.(0) <- col;
  pos.(first) <- 0;
  let len = ref first_card in
  let steps = ref [] in
  for i = 1 to n - 1 do
    let r = plan.(i) in
    let comparisons = join s ~max_rows query ~data ~pos ~len:!len r in
    if i < n - 1 then commit s ~width:i;
    pos.(r) <- i;
    len := s.emitted;
    Ljqo_obs.Obs.add Ljqo_obs.Obs.Exec_probe_comparisons comparisons;
    let stat =
      { inner_relation = r; output_rows = !len; probe_comparisons = comparisons }
    in
    (match on_step with None -> () | Some f -> f stat);
    steps := stat :: !steps
  done;
  if Ljqo_obs.Obs.tracing () then begin
    let total_probes =
      List.fold_left (fun a s -> a + s.probe_comparisons) 0 !steps
    in
    Ljqo_obs.Obs.trace "exec.plan"
      [
        ("relations", Ljqo_obs.Obs.I n);
        ("rows", Ljqo_obs.Obs.I !len);
        ("probe_comparisons", Ljqo_obs.Obs.I total_probes);
      ]
  end;
  (match on_row with None -> () | Some f -> iter_rows s plan ~len:!len f);
  { row_count = !len; steps = List.rev !steps; first_card }

let run ?(max_rows = 1_000_000) ?on_step ?on_row query ~data plan =
  check_inputs query ~data plan;
  with_scratch (fun s -> execute s ~max_rows ?on_step ?on_row query ~data plan)

let cardinalities result =
  result.first_card :: List.map (fun s -> s.output_rows) result.steps

let nested_loop_oracle ?(max_rows = 1_000_000) query ~data plan =
  check_inputs query ~data plan;
  let n = Query.n_relations query in
  let placed = Array.make n false in
  let first = plan.(0) in
  placed.(first) <- true;
  let rows =
    ref
      (List.init (Relation_data.cardinality data.(first)) (fun t ->
           let row = Array.make n (-1) in
           row.(first) <- t;
           row))
  in
  for i = 1 to n - 1 do
    let r = plan.(i) in
    let inner_card = Relation_data.cardinality data.(r) in
    let edges = applicable_edges query ~placed r in
    let out = ref [] in
    let count = ref 0 in
    List.iter
      (fun row ->
        for t = 0 to inner_card - 1 do
          if matches query ~data ~row ~r ~t edges then begin
            let row' = Array.copy row in
            row'.(r) <- t;
            out := row' :: !out;
            incr count;
            if !count > max_rows then raise (Result_too_large !count)
          end
        done)
      !rows;
    placed.(r) <- true;
    rows := !out
  done;
  List.length !rows
