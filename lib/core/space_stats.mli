(** Statistics of the valid-plan cost space.

    The paper closes with "The distribution of solution costs in the space
    of valid solutions is of interest and is being investigated"; this
    module is that investigation's instrument.  It samples random valid
    plans, descends from a subset of them, and summarizes both
    distributions, giving the quantities the paper's Section 6.4 speculates
    about: how far apart random plans and local minima are, and how variable
    local-minimum quality is (the "deep minima" story behind II's
    success). *)

type t = {
  n_samples : int;
  random_costs : float array;  (** sorted ascending *)
  minima_costs : float array;  (** sorted ascending; may be empty *)
}

val sample :
  ?n_samples:int ->
  ?n_descents:int ->
  seed:int ->
  Ljqo_cost.Cost_model.t ->
  Ljqo_catalog.Query.t ->
  t
(** [n_samples] random valid plans (default 200) and [n_descents] II
    descents from the first samples (default 20, each budgeted 200_000
    ticks).  Connected queries only. *)

type summary = {
  minimum : float;
  median : float;
  p90 : float;
  maximum : float;
  spread : float;  (** median / minimum — the "how bad is a typical plan"
                       ratio *)
}

val summarize : float array -> summary
(** Raises [Invalid_argument] on empty input. *)

val local_minima_spread : t -> float option
(** p90-of-minima / min-of-minima: > 1 means descents land in minima of
    different depths — the regime where restarts and good start states pay
    off.  [None] if fewer than 2 descents were run. *)

val pp : Format.formatter -> t -> unit
(** Human-readable report of both distributions. *)
