(** Canonical query fingerprints.

    A fingerprint is a structural hash of a {!Ljqo_catalog.Query.t} that is
    invariant under relation relabeling and reordering: two queries that
    differ only in how their relations are numbered (or named) get the same
    keys.  It is the identity under which the plan-cache service recognizes
    repeated and similar queries.

    Construction is one-dimensional Weisfeiler–Leman color refinement over
    the join graph.  Each relation starts from a label built from its
    {e bucketed} statistics (log-scale buckets of cardinality and
    distinct-value count); a fixed number of refinement rounds then folds in
    the sorted multiset of each vertex's neighbor signatures, tagged with the
    bucketed selectivity of the connecting edge.  The digest hashes the
    sorted multiset of final vertex signatures together with the sorted
    multiset of edge signatures — all order-free combinations, hence the
    relabeling invariance.

    Two keys are derived:

    - the {e exact} key folds every per-relation statistic in milli-decade
      buckets (0.23% relative resolution): it separates any two
      statistically distinguishable queries, so an exact-key match means
      "the same query up to relabeling";
    - the {e coarse} key deliberately ignores per-relation cardinality
      statistics, hashing only the join-graph shape and the edge
      selectivities in half-decade buckets.  A query whose base-table
      statistics drifted — the common case between plannings of the same
      logical query — keeps its coarse key, so a coarse match means "same
      join structure, similar join strengths: the cached plan is a good warm
      start".  (Folding dozens of finely-bucketed statistics into the coarse
      key would make it brittle: one flipped bucket out of 2V changes the
      hash, and for V ~ 30 some bucket nearly always flips.)

    The fingerprint also fixes a {e canonical order} of the relations,
    sorting by coarse (structural) signature with exact-signature
    tie-breaks, through which plans are translated to and from a
    label-independent form for storage in the cache.  Basing the primary
    sort on the coarse signature makes the canonical positions of two
    coarse-matching queries line up, so a warm-started plan maps relation-
    for-relation onto the structurally corresponding ones.  Remaining ties
    (automorphism-like relations) are broken by relation id, so the order is
    canonical only up to such ties — callers mapping a plan across two
    fingerprints must re-check {!Ljqo_core.Plan.is_valid} and fall back when
    the mapping lands on an invalid plan. *)

type t

val compute : Ljqo_catalog.Query.t -> t
(** O(rounds · (V + E) log V).  One kernel computes both keys: it builds a
    CSR adjacency once, keeps the 64-bit signatures unboxed in [Bytes],
    sorts in place, and refines the exact and coarse signatures in the same
    sweep.  On the 51-relation, 71-edge query of the [service:fingerprint-n51]
    micro-benchmark it takes about 32 µs and 1.5k minor words per call
    (best of 30 batches of 200 calls, 2-vCPU Intel Xeon VM). *)

val n_relations : t -> int

val exact_key : t -> string
(** 16 lowercase hex digits. *)

val coarse_key : t -> string

val canonical_order : t -> int array
(** [order.(p)] is the relation id at canonical position [p].  A fresh
    copy. *)

val to_canonical : t -> Ljqo_core.Plan.t -> int array
(** Rewrite a plan over relation ids into canonical positions — the form the
    cache stores.  Raises [Invalid_argument] on a length mismatch or an
    out-of-range id. *)

val of_canonical : t -> int array -> Ljqo_core.Plan.t
(** Instantiate a canonical-position plan with {e this} query's relation
    ids — the inverse of {!to_canonical} through any fingerprint with the
    same exact key.  Raises [Invalid_argument] on a length mismatch or an
    out-of-range position.  The result is a permutation whenever the input
    was one; validity on the target join graph is the caller's check. *)
