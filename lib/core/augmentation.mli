(** The augmentation heuristic (Section 4.1).

    A permutation is grown greedily: the first relation is fixed (starts are
    tried in order of increasing cardinality, giving up to [n] distinct
    states), and each subsequent position is filled by [chooseNext], which
    scores only relations joined to the current prefix (so the result is
    always valid) under one of five criteria:

    + [Min_cardinality] — smallest [N_j];
    + [Max_degree] — highest join-graph degree;
    + [Min_selectivity] — smallest effective join selectivity with the
      prefix (the product of the applicable edge selectivities) — the
      criterion the paper finds best (Table 1);
    + [Min_intermediate_size] — smallest next intermediate result
      [N_i * N_j * J_ij];
    + [Min_rank] — smallest KBZ rank
      [(N_i N_j J_ij - 1) / (0.5 N_i (N_j / D_j))].

    Criteria 3–5 read each edge through the cost model's estimator (the
    effective selectivity of {!Ljqo_cost.Plan_cost.Stepper}, with its
    distinct-value clamp at the current intermediate size).
    Criteria 4 and 5 multiply the effective selectivities of a candidate's
    edges to placed relations in ascending neighbor order; criterion 3 takes
    their minimum, as [Float.min] does (NaN and signed zeros included).  The
    running intermediate size is floored at one tuple but not capped, so on
    extreme inputs it can reach [inf], and then NaN after a zero-selectivity
    edge.

    The chosen candidate minimizes [(key, -.D_j, j)] in the order
    polymorphic [<] gives those tuples: the smallest key, then ties toward
    more distinct values [D_j] (keeping intermediate distinct counts high,
    the paper's stated goal), then toward the smaller relation id, so the
    heuristic is deterministic.  A NaN key compares unordered: it never
    displaces the best so far, and nothing displaces it once it is the best.
    Candidates are scanned in the order they joined the prefix, a placed
    one's slot taken by the last, so that order decides the NaN cases.

    Scoring a candidate allocates nothing: a state allocates only its
    [O(n)] working arrays. *)

type criterion =
  | Min_cardinality
  | Max_degree
  | Min_selectivity
  | Min_intermediate_size
  | Min_rank

val all_criteria : criterion list
(** In the paper's order, 1 through 5. *)

val criterion_index : criterion -> int
(** 1-based, as in Table 1. *)

val criterion_of_index : int -> criterion
val criterion_name : criterion -> string

val default_criterion : criterion
(** [Min_selectivity], the Table 1 winner, used by all combined methods. *)

val starts : Ljqo_catalog.Query.t -> int list
(** Start relations in increasing-cardinality order. *)

val generate :
  ?charge:(int -> unit) ->
  Ljqo_catalog.Query.t ->
  criterion ->
  start:int ->
  Plan.t
(** Build the permutation beginning at relation [start].  [charge] receives
    the number of candidates scored at each step (the heuristic's work, for
    tick accounting).  Raises [Invalid_argument] on a disconnected query. *)

val make_source :
  ?criterion:criterion -> Evaluator.t -> unit -> Plan.t option
(** A stateful start-state source for the combined methods: each call builds
    the augmentation state for the next start relation (charging its work
    to the evaluator), returning [None] once all [n] starts are used. *)
