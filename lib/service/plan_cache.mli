(** Sharded LRU cache of best-known plans, keyed by query fingerprint.

    Entries are stored under the {e exact} fingerprint key and indexed a
    second time under the {e coarse} key, so a lookup can distinguish "seen
    this very query" (serve the plan) from "seen a similar query" (warm-start
    re-optimization from its plan).  Plans are stored in canonical-position
    form ({!Fingerprint.to_canonical}), which is what makes an entry reusable
    across relabeled twins.

    Concurrency: the key space is split over independent shards, each with
    its own mutex, so concurrent serving domains contend only when they touch
    the same shard.  No operation ever holds two shard locks, so the cache
    cannot deadlock whatever the interleaving.

    Recency and determinism: read operations ({!find_exact}, {!find_coarse},
    {!lookup}) never update recency — promotion happens only through
    {!touch} and {!put}.  A batch scheduler that reads concurrently but
    touches/puts sequentially in request order therefore evolves the cache —
    and its eviction decisions — deterministically, independent of the job
    count.

    Admission: a new key is always admitted (evicting the least recently
    used entry of its shard when the shard is full); an existing key is
    replaced only by a strictly cheaper plan, so a lucky early result cannot
    be clobbered by a later, worse re-optimization.

    Counters: hit/miss/insertion/eviction totals are kept internally
    ({!stats}) and mirrored into [ljqo_obs] ({!Ljqo_obs.Obs.counter}:
    [Cache_hits], [Cache_coarse_hits], [Cache_misses], [Cache_insertions],
    [Cache_evictions]) when observability is enabled. *)

type entry = {
  cplan : int array;  (** best-known plan, in canonical-position form *)
  cost : float;  (** its cost on the query that produced it *)
  ticks : int;  (** optimizer ticks spent producing it *)
}

type stats = {
  hits : int;
  coarse_hits : int;
  misses : int;
  insertions : int;
  evictions : int;
}

type t

val create : ?shards:int -> capacity:int -> unit -> t
(** [capacity] is the total entry budget, split evenly over [shards]
    (default 8, floored at 1; each shard holds at least one entry).  Raises
    [Invalid_argument] when [capacity < 1] or [shards < 1]. *)

val capacity : t -> int
(** The effective total capacity ([shards * per-shard capacity]; at least
    the requested capacity). *)

val length : t -> int
(** Entries currently cached (sums shard sizes; O(shards)). *)

val find_exact : t -> string -> entry option
(** Read-only: no recency update, no counters. *)

val find_coarse : t -> string -> entry option
(** The entry most recently admitted under this coarse key, if it is still
    cached.  Read-only. *)

val lookup :
  t ->
  exact:string ->
  coarse:string ->
  validate:(entry -> bool) ->
  [ `Exact of entry | `Coarse of entry | `Miss ]
(** The service's lookup policy: try the exact key, then the coarse key,
    accepting only entries that pass [validate] (e.g. "instantiates to a
    valid plan on the query at hand").  Bumps exactly one counter —
    hit, coarse-hit or miss. *)

val touch : t -> string -> unit
(** Promote the entry (if present) to most-recently-used in its shard. *)

val put : t -> exact:string -> coarse:string -> entry -> unit
(** Admit or improve the entry under [exact] (see admission policy above),
    promote it, index it under [coarse], and evict the shard's LRU entry
    when over capacity. *)

val stats : t -> stats
