(** The nine optimization methods compared in the paper (Section 4.4).

    - [II]: iterative improvement from random start states, repeated until
      time runs out; best local minimum wins.
    - [SA]: simulated annealing from a random start state.
    - [SAA] / [SAK]: SA seeded with a single augmentation / KBZ state.
    - [IAI] / [IKI]: II whose first start states come from the augmentation /
      KBZ heuristic (falling back to random starts when those run out).
    - [IAL]: like IAI, but after the augmentation states are used local
      improvement is applied to the incumbent (then random-start II fills any
      remaining time).
    - [AGI] / [KBI]: first generate (and cost) every augmentation / KBZ
      state, then run random-start II; best of everything wins.

    Beyond the paper's nine, two extension methods are selectable by name
    but kept out of {!all} so the paper-reproduction sweeps are unchanged:

    - [Two_phase] (["2PO"]): II descents then low-temperature SA from the
      best local minimum (see {!Two_phase}).
    - [Portfolio]: races II / SA / two-phase replicates across domains with
      incumbent exchange at round barriers (see {!Portfolio}).

    [run] drives a method against an evaluator until its budget is exhausted,
    it converges, or the method has no way to spend more time; the result is
    the evaluator's incumbent. *)

type t =
  | II
  | SA
  | SAA
  | SAK
  | IAI
  | IKI
  | IAL
  | AGI
  | KBI
  | Two_phase
  | Portfolio

val all : t list
(** The paper's nine, in presentation order (no [Portfolio]). *)

val top_five : t list
(** [IAI; IAL; AGI; KBI; II] — the methods kept after Figure 4. *)

val selectable : t list
(** Everything a user can name on a command line: {!all} plus [Two_phase]
    and [Portfolio]. *)

val name : t -> string
val of_name : string -> t option

type config = {
  ii_params : Iterative_improvement.params;
  sa_params : Simulated_annealing.params;
  augmentation_criterion : Augmentation.criterion;
  kbz_weighting : Kbz.weighting;
  portfolio_params : Portfolio.params;
}

val default_config : config

val run :
  ?config:config -> ?start:Plan.t -> t -> Evaluator.t -> Ljqo_stats.Rng.t -> unit
(** Never raises [Budget.Exhausted] or [Evaluator.Converged]; consult the
    evaluator for the incumbent and checkpoint curve.

    [start] warm-starts the method with a known-good plan (the plan-cache
    service's similar-query seed): the II-driven methods descend it before
    any other start state, the SA methods anneal from it, and AGI/KBI record
    it as the incumbent before their heuristic sweep.  Must be valid for the
    evaluator's query; [Invalid_argument] otherwise (checked eagerly). *)
