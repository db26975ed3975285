(** The random state generator.

    Produces a uniform-ish random *valid* permutation by growing a random
    connected prefix: start from a uniformly chosen relation, then repeatedly
    append a relation chosen uniformly among those joined to the prefix.
    This is the start-state generator used by II and SA in the paper.

    Only defined for queries whose join graph is connected; the optimizer
    facade decomposes disconnected queries first. *)

val generate : Ljqo_stats.Rng.t -> Ljqo_catalog.Query.t -> Plan.t
(** Raises [Invalid_argument] on a disconnected query.

    The prefix bookkeeping runs on the graph's neighbor masks
    ({!Ljqo_catalog.Bitset}) at every width: two local prefix words up to
    {!Ljqo_catalog.Bitset.inline_size} relations, one preallocated scratch
    word array beyond.  Both forms consume the RNG identically and return
    identical plans. *)

val generate_charged : Evaluator.t -> Ljqo_stats.Rng.t -> Plan.t
(** Same, charging [n] ticks to the evaluator's budget. *)
