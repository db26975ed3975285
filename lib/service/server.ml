module Obs = Ljqo_obs.Obs
module Guard = Ljqo_harness.Guard
module Query = Ljqo_catalog.Query

type config = {
  service : Service.config;
  workers : int;
  queue_capacity : int;
  tenant_slots : int option;
  request_deadline : float option;
}

let default_config =
  {
    service = Service.default_config;
    workers = 1;
    queue_capacity = 64;
    tenant_slots = None;
    request_deadline = None;
  }

type outcome = Served of Service.direct | Failed of string | Deadlined

type response = {
  id : int;
  tenant : string;
  outcome : outcome;
  queue_wait_ns : int;
  latency_ns : int;
}

type stats = {
  accepted : int;
  served : int;
  failed : int;
  timed_out : int;
  shed_queue_full : int;
  shed_tenant_limit : int;
  shed_draining : int;
  drained : int;
  max_queue_depth : int;
}

type request = { id : int; tenant : string; query : Query.t; submitted_ns : float }

type t = {
  cfg : config;
  service : Service.t;
  queue : request Request_queue.t;
  slots : Admission.slots option;
  draining : bool Atomic.t;
  active : int Atomic.t;  (* worker domains still in their loop *)
  (* submission state, under [sub_mutex]: dense ids for accepted requests *)
  sub_mutex : Mutex.t;
  mutable next_id : int;
  (* completion state, under [done_mutex] *)
  done_mutex : Mutex.t;
  mutable responses : response list;
  mutable n_served : int;
  mutable n_failed : int;
  mutable n_timed_out : int;
  mutable n_drained : int;
  completed : int Atomic.t;
  (* shed accounting, under [sub_mutex] *)
  mutable n_shed_queue_full : int;
  mutable n_shed_tenant_limit : int;
  mutable n_shed_draining : int;
  (* lifecycle, under [life_mutex] *)
  life_mutex : Mutex.t;
  mutable domains : unit Domain.t list;
  mutable started : bool;
  mutable drain_responses : response list option;  (* cached Drained result *)
}

let now_ns () = Unix.gettimeofday () *. 1e9

(* The CLI drives drain from a signal handler's flag; a signal landing inside
   a sleep must not abort the drain loop. *)
let sleepf s = try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ()

let check_config cfg =
  if cfg.workers < 1 then
    invalid_arg "Server.create: workers must be positive";
  if cfg.queue_capacity < 1 then
    invalid_arg "Server.create: queue_capacity must be positive";
  (match cfg.tenant_slots with
  | Some k when k < 1 ->
    invalid_arg "Server.create: tenant_slots must be positive"
  | _ -> ());
  match cfg.request_deadline with
  | Some d when not (d > 0.0) ->
    invalid_arg "Server.create: request_deadline must be positive"
  | _ -> ()

let outcome_name = function
  | Served d -> if d.Service.d_timed_out then "timed_out" else "served"
  | Failed _ -> "failed"
  | Deadlined -> "deadlined"

let serve_one t (req : request) =
  let pickup = now_ns () in
  let wait_ns = max 0 (int_of_float (pickup -. req.submitted_ns)) in
  Obs.hist_record Obs.Queue_wait_ns wait_ns;
  let outcome =
    Obs.span "server.request"
      ~fields:[ ("id", Obs.I req.id); ("tenant", Obs.S req.tenant) ]
      (fun () ->
        match
          Guard.run ~query_id:req.id (fun () ->
              Service.serve_direct ?deadline:t.cfg.request_deadline t.service
                req.query)
        with
        | Guard.Completed d -> Served d
        | Guard.Crashed f -> Failed f.exn
        | Guard.Timed_out _ -> Deadlined)
  in
  let finished = now_ns () in
  let latency_ns = max 0 (int_of_float (finished -. req.submitted_ns)) in
  Obs.hist_record Obs.Service_latency_ns latency_ns;
  let while_draining = Atomic.get t.draining in
  if while_draining then Obs.bump Obs.Service_drained;
  (match outcome with
  | Served _ -> ()
  | Failed _ -> Obs.bump Obs.Service_failed
  | Deadlined -> Obs.bump Obs.Service_timeouts);
  Obs.trace "service.request"
    [
      ("id", Obs.I req.id);
      ("tenant", Obs.S req.tenant);
      ("outcome", Obs.S (outcome_name outcome));
      ("drained", Obs.I (if while_draining then 1 else 0));
      ("queue_wait_ns", Obs.I wait_ns);
      ("latency_ns", Obs.I latency_ns);
    ];
  let response =
    { id = req.id; tenant = req.tenant; outcome; queue_wait_ns = wait_ns; latency_ns }
  in
  Mutex.lock t.done_mutex;
  t.responses <- response :: t.responses;
  (match outcome with
  | Served d ->
    t.n_served <- t.n_served + 1;
    if d.Service.d_timed_out then t.n_timed_out <- t.n_timed_out + 1
  | Failed _ -> t.n_failed <- t.n_failed + 1
  | Deadlined -> t.n_timed_out <- t.n_timed_out + 1);
  if while_draining then t.n_drained <- t.n_drained + 1;
  Mutex.unlock t.done_mutex;
  (match t.slots with
  | Some s -> Admission.release s ~tenant:req.tenant
  | None -> ());
  Atomic.incr t.completed

let worker_loop t () =
  let rec loop () =
    match Request_queue.pop t.queue with
    | None -> ()
    | Some req ->
      serve_one t req;
      loop ()
  in
  Fun.protect ~finally:(fun () -> Atomic.decr t.active) loop

let create ?cache ?cache_capacity ?(start = true) cfg =
  check_config cfg;
  let service = Service.create ?cache ?cache_capacity cfg.service in
  let t =
    {
      cfg;
      service;
      queue = Request_queue.create ~capacity:cfg.queue_capacity ();
      slots = Option.map (fun k -> Admission.slots ~per_tenant:k) cfg.tenant_slots;
      draining = Atomic.make false;
      active = Atomic.make 0;
      sub_mutex = Mutex.create ();
      next_id = 0;
      done_mutex = Mutex.create ();
      responses = [];
      n_served = 0;
      n_failed = 0;
      n_timed_out = 0;
      n_drained = 0;
      completed = Atomic.make 0;
      n_shed_queue_full = 0;
      n_shed_tenant_limit = 0;
      n_shed_draining = 0;
      life_mutex = Mutex.create ();
      domains = [];
      started = false;
      drain_responses = None;
    }
  in
  if start then begin
    Mutex.lock t.life_mutex;
    t.started <- true;
    t.domains <- List.init cfg.workers (fun _ -> Domain.spawn (worker_loop t));
    Atomic.set t.active cfg.workers;
    Mutex.unlock t.life_mutex
  end;
  t

let start t =
  Mutex.lock t.life_mutex;
  if (not t.started) && t.drain_responses = None then begin
    t.started <- true;
    Atomic.set t.active t.cfg.workers;
    t.domains <- List.init t.cfg.workers (fun _ -> Domain.spawn (worker_loop t))
  end;
  Mutex.unlock t.life_mutex

let cache t = Service.cache t.service

type submit_result = Accepted of int | Shed of Admission.reason

(* Sheds are recorded by the admission front ends, not by [try_admit]:
   [submit_wait] retries a transient Full/Tenant_limit as backpressure, and
   only a rejection the caller actually takes counts in the statistics. *)
let record_shed t reason =
  Obs.bump Obs.Service_shed;
  Obs.trace "service.shed" [ ("reason", Obs.S (Admission.reason_name reason)) ];
  Mutex.lock t.sub_mutex;
  (match reason with
  | Admission.Queue_full -> t.n_shed_queue_full <- t.n_shed_queue_full + 1
  | Admission.Tenant_limit -> t.n_shed_tenant_limit <- t.n_shed_tenant_limit + 1
  | Admission.Draining -> t.n_shed_draining <- t.n_shed_draining + 1);
  Mutex.unlock t.sub_mutex;
  Shed reason

(* One admission attempt; records nothing on rejection. *)
let try_admit ~tenant t query =
  let reject reason = Shed reason in
  Mutex.lock t.sub_mutex;
  let result =
    if Atomic.get t.draining then reject Admission.Draining
    else
      let slot_ok =
        match t.slots with
        | None -> true
        | Some s -> Admission.try_acquire s ~tenant
      in
      if not slot_ok then reject Admission.Tenant_limit
      else begin
        let req =
          { id = t.next_id; tenant; query; submitted_ns = now_ns () }
        in
        match Request_queue.try_push t.queue req with
        | Request_queue.Pushed ->
          t.next_id <- t.next_id + 1;
          Obs.bump Obs.Service_accepted;
          Accepted req.id
        | Request_queue.Full ->
          (match t.slots with
          | Some s -> Admission.release s ~tenant
          | None -> ());
          reject Admission.Queue_full
        | Request_queue.Closed ->
          (match t.slots with
          | Some s -> Admission.release s ~tenant
          | None -> ());
          reject Admission.Draining
      end
  in
  Mutex.unlock t.sub_mutex;
  result

let submit ?(tenant = "default") t query =
  match try_admit ~tenant t query with
  | Accepted id -> Accepted id
  | Shed reason -> record_shed t reason

let rec submit_wait ?(tenant = "default") t query =
  match try_admit ~tenant t query with
  | Accepted id -> Accepted id
  | Shed Admission.Draining -> record_shed t Admission.Draining
  | Shed (Admission.Queue_full | Admission.Tenant_limit) ->
    sleepf 0.0005;
    submit_wait ~tenant t query

type drain_result =
  | Drained of response list
  | Drain_timeout of { pending : int; responses : response list }

let sorted_responses t =
  Mutex.lock t.done_mutex;
  let rs = t.responses in
  Mutex.unlock t.done_mutex;
  List.sort (fun (a : response) (b : response) -> compare a.id b.id) rs

let drain ?timeout t =
  Mutex.lock t.life_mutex;
  match t.drain_responses with
  | Some rs ->
    Mutex.unlock t.life_mutex;
    Drained rs
  | None ->
    Atomic.set t.draining true;
    Request_queue.close t.queue;
    (* A never-started server still owes its accepted requests a response:
       spawn the workers now so the drain can complete them. *)
    if not t.started then begin
      t.started <- true;
      Atomic.set t.active t.cfg.workers;
      t.domains <- List.init t.cfg.workers (fun _ -> Domain.spawn (worker_loop t))
    end;
    let give_up =
      match timeout with
      | None -> None
      | Some s -> Some (Unix.gettimeofday () +. s)
    in
    let rec wait () =
      if Atomic.get t.active = 0 then true
      else
        match give_up with
        | Some g when Unix.gettimeofday () >= g -> false
        | _ ->
          sleepf 0.002;
          wait ()
    in
    let finished = wait () in
    if finished then begin
      List.iter Domain.join t.domains;
      t.domains <- [];
      let rs = sorted_responses t in
      t.drain_responses <- Some rs;
      Mutex.unlock t.life_mutex;
      Drained rs
    end
    else begin
      Mutex.unlock t.life_mutex;
      Mutex.lock t.sub_mutex;
      let accepted = t.next_id in
      Mutex.unlock t.sub_mutex;
      let pending = accepted - Atomic.get t.completed in
      Drain_timeout { pending; responses = sorted_responses t }
    end

let stats t =
  Mutex.lock t.sub_mutex;
  let accepted = t.next_id
  and shed_queue_full = t.n_shed_queue_full
  and shed_tenant_limit = t.n_shed_tenant_limit
  and shed_draining = t.n_shed_draining in
  Mutex.unlock t.sub_mutex;
  Mutex.lock t.done_mutex;
  let served = t.n_served
  and failed = t.n_failed
  and timed_out = t.n_timed_out
  and drained = t.n_drained in
  Mutex.unlock t.done_mutex;
  {
    accepted;
    served;
    failed;
    timed_out;
    shed_queue_full;
    shed_tenant_limit;
    shed_draining;
    drained;
    max_queue_depth = Request_queue.max_depth t.queue;
  }
