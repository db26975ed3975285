(** A long-lived concurrent optimizer server over {!Service}.

    Worker domains pull requests from a bounded MPMC {!Request_queue} and
    serve each through {!Service.serve_direct}, guarded
    ({!Ljqo_harness.Guard}) so a crashing request costs one response, never
    a worker.  Admission control happens at submission: a full queue sheds
    with {!Admission.Queue_full}, per-tenant fair-share slots (when
    configured) shed a hot tenant's excess with {!Admission.Tenant_limit},
    and a draining server sheds everything with {!Admission.Draining}.

    {2 Determinism contract}

    Each accepted request is served by [serve_direct], whose outcome —
    plan, cost, ticks, cache commit — is a pure function of the query bytes
    and the service seed (see {!Service.serve_direct}).  Hence per-request
    outcomes are independent of worker count and interleaving, and a
    1-worker server over a FIFO queue with no shedding replays the
    serialized schedule: same plans and same final cache state as
    {!Service.serve_batch} over the same request sequence from the same
    starting cache.  What {e does} vary with scheduling is which duplicate
    pays the cold optimization and which gets the exact hit — the plans and
    costs served are identical either way — and all wall-clock observables
    (latency, queue wait).

    {2 Graceful drain}

    {!drain} stops admission (subsequent submissions shed as [Draining]),
    lets the workers finish every request already accepted, then joins
    them.  Requests completed after the drain began are counted as
    [drained] (the ["service.drained"] counter). *)

type config = {
  service : Service.config;
  workers : int;  (** worker domains; [>= 1] *)
  queue_capacity : int;  (** bounded queue depth; [>= 1] *)
  tenant_slots : int option;
      (** per-tenant in-flight cap ([None] = no tenant policy) *)
  request_deadline : float option;
      (** per-request wall-clock allowance in seconds, applied from worker
          pickup; an overloaded worker salvages its incumbent as
          [d_timed_out] instead of blocking the queue *)
}

val default_config : config
(** {!Service.default_config}, 1 worker, queue capacity 64, no tenant
    slots, no deadline. *)

type outcome =
  | Served of Service.direct
      (** includes deadline-salvaged incumbents ([d_timed_out = true]) *)
  | Failed of string  (** the optimization crashed; exception text *)
  | Deadlined  (** the deadline fired before any incumbent existed *)

type response = {
  id : int;  (** submission order, dense from 0 *)
  tenant : string;
  outcome : outcome;
  queue_wait_ns : int;
  latency_ns : int;  (** full sojourn: submission to completion *)
}

type stats = {
  accepted : int;
  served : int;  (** [Served] responses, timed-out salvages included *)
  failed : int;  (** [Failed] responses (crashes) *)
  timed_out : int;  (** salvaged [d_timed_out] serves plus [Deadlined] *)
  shed_queue_full : int;
  shed_tenant_limit : int;
  shed_draining : int;
  drained : int;  (** accepted requests completed after drain began *)
  max_queue_depth : int;
}

type t

val create :
  ?cache:Plan_cache.t ->
  ?cache_capacity:int ->
  ?start:bool ->
  config ->
  t
(** Validates the config ([Invalid_argument] on non-positive [workers],
    [queue_capacity], [tenant_slots] or [request_deadline]).  [start]
    (default [true]) spawns the worker domains immediately; pass [false] to
    fill the queue deterministically first (tests) and call {!start} when
    ready. *)

val start : t -> unit
(** Spawn the worker domains; idempotent, and a no-op after {!drain}. *)

val cache : t -> Plan_cache.t

type submit_result = Accepted of int | Shed of Admission.reason

val submit : ?tenant:string -> t -> Ljqo_catalog.Query.t -> submit_result
(** Non-blocking admission ([tenant] defaults to ["default"]).  [Accepted
    id] means the request is queued and its response will appear in
    {!drain}'s result under [id]. *)

val submit_wait : ?tenant:string -> t -> Ljqo_catalog.Query.t -> submit_result
(** Like {!submit} but treats a full queue (and a tenant at its limit) as
    backpressure: blocks until the request is admitted or the server starts
    draining ([Shed Draining]). *)

type drain_result =
  | Drained of response list  (** every accepted request, sorted by [id] *)
  | Drain_timeout of { pending : int; responses : response list }
      (** workers still busy when [timeout] elapsed; the server is left
          closed with [pending] requests unfinished *)

val drain : ?timeout:float -> t -> drain_result
(** Stop admission, wait for the workers to finish every accepted request
    ([timeout] in seconds, default unbounded), join them.  Idempotent:
    later calls return the same responses. *)

val stats : t -> stats
(** A consistent snapshot; callable at any time. *)
