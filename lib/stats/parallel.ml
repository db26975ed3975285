(* Multicore work distribution for the experiment harness (OCaml 5
   domains).  Every experiment is embarrassingly parallel across queries —
   each query's runs are pure functions of their seeds — so a simple
   work-stealing-free counter queue suffices.  Results are written each to
   its own slot and folded in input order afterwards, so the output is
   bit-identical whatever the job count.

   Default is sequential: pass --jobs (or set LJQO_JOBS) on multi-core
   hosts; on a single hardware thread the pool below spawns no worker. *)

let log_src = Logs.Src.create "ljqo.parallel" ~doc:"harness work distribution"

module Log = (val Logs.src_log log_src)

let configured_jobs = ref None

let set_jobs j = configured_jobs := Some (max 1 j)

let warned_bad_env = ref false

let default_jobs () =
  match !configured_jobs with
  | Some j -> j
  | None -> (
    match Sys.getenv_opt "LJQO_JOBS" with
    | Some v -> (
      match int_of_string_opt v with
      | Some j when j >= 1 -> j
      | _ ->
        if not !warned_bad_env then begin
          warned_bad_env := true;
          Log.warn (fun m ->
              m "LJQO_JOBS=%S is not a positive integer; running sequentially" v)
        end;
        1)
    | None -> 1)

(* The worker pool.  A domain spawn plus join costs a median 150-230 us on
   a 2-vCPU VM, a quarter of a portfolio round, so workers are spawned on
   first need and then parked for the life of the process; a batch wakes
   them instead.  One batch is in flight at a time: its owner (the domain that
   set [busy]) alone spawns workers and publishes batches, and a call made
   while the pool is busy — nested in an item, or from another domain — runs
   inline on its own domain.  Worker [i] joins a batch only if [i] is below
   the batch's [helpers], so a batch asking for [jobs] domains uses at most
   [jobs - 1] workers, and always the same ones.

   A parked domain is not free: it still takes part in every
   stop-the-world minor collection, which is why the pool never grows past
   one worker per spare core nor past what a batch has asked for. *)
let max_workers = max 0 (Domain.recommended_domain_count () - 1)

let busy = Atomic.make false

let lock = Mutex.create ()

let wake = Condition.create ()

let left = Condition.create ()

(* Under [lock]: the published batch, its number, how many workers may
   join it, and how many are inside it. *)
let work = ref ignore

let generation = ref 0

let helpers = ref 0

let active = ref 0

(* Touched only by the batch owner. *)
let spawned = ref 0

let worker index () =
  let seen = ref 0 in
  Mutex.lock lock;
  while true do
    while !generation = !seen do
      Condition.wait wake lock
    done;
    seen := !generation;
    if index < !helpers then begin
      incr active;
      let batch = !work in
      Mutex.unlock lock;
      (* Items catch their own exceptions; this only keeps [active] exact. *)
      (try batch () with _ -> ());
      Mutex.lock lock;
      decr active;
      if !active = 0 then Condition.signal left
    end
  done

(* A failed spawn (resource exhaustion) just means fewer workers. *)
let rec grow want =
  if !spawned < want then
    match Domain.spawn (worker !spawned) with
    | _ ->
      incr spawned;
      grow want
    | exception _ -> ()

(* Run [batch] on the calling domain and, if it can take the pool, on up to
   [want] workers; return once every worker that joined has left.  [batch]
   must return only when no item is left to claim. *)
let run_batch ~want batch =
  if not (Atomic.compare_and_set busy false true) then batch ()
  else
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock lock;
        helpers := 0;
        while !active > 0 do
          Condition.wait left lock
        done;
        work := ignore;
        Mutex.unlock lock;
        Atomic.set busy false)
      (fun () ->
        grow (min want max_workers);
        Mutex.lock lock;
        work := batch;
        helpers := min want !spawned;
        incr generation;
        Condition.broadcast wake;
        Mutex.unlock lock;
        batch ())

type 'a slot =
  | Done of 'a
  | Raised of { exn : exn; backtrace : Printexc.raw_backtrace }

(* Items never let an exception escape: each item's outcome lands in its own
   slot, so one crashing item can neither kill a worker nor end the batch
   early for its siblings. *)
let map_array_result ?(jobs = default_jobs ()) f a =
  let n = Array.length a in
  let jobs = max 1 (min jobs n) in
  let protect x =
    try Done (f x)
    with exn -> Raised { exn; backtrace = Printexc.get_raw_backtrace () }
  in
  if jobs = 1 then Array.map protect a
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec claim () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (protect a.(i));
        claim ()
      end
    in
    run_batch ~want:(jobs - 1) claim;
    Array.map
      (function
        | Some r -> r
        | None ->
          (* Unreachable: every index is claimed exactly once and the batch
             ends only after every claimed item has finished; keep a
             structured slot rather than a crash anyway. *)
          Raised
            {
              exn = Failure "Parallel.map_array_result: unfilled slot";
              backtrace = Printexc.get_callstack 0;
            })
      results
  end

let map_array ?jobs f a =
  let slots = map_array_result ?jobs f a in
  Array.map
    (function
      | Done v -> v
      | Raised { exn; backtrace } -> Printexc.raise_with_backtrace exn backtrace)
    slots
