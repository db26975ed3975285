module Obs = Ljqo_obs.Obs

type t = {
  epoch : int;
  initial : Model.t option;
  mutex : Mutex.t;
  cond : Condition.t;
  slots : (int, Dataset.sample option) Hashtbl.t;
  mutable contiguous : int;  (* slots [0 .. contiguous-1] are all filled *)
  mutable frontier : int;  (* next id handed out by [record] *)
  history : (int, Model.t option) Hashtbl.t;  (* boundary -> its model *)
}

let create ?(epoch = 32) ?initial () =
  if epoch < 1 then invalid_arg "Online.create: epoch must be positive";
  {
    epoch;
    initial;
    mutex = Mutex.create ();
    cond = Condition.create ();
    slots = Hashtbl.create 256;
    contiguous = 0;
    frontier = 0;
    history = Hashtbl.create 8;
  }

let epoch_size t = t.epoch

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Model for [boundary], training every untrained boundary at or below it
   (in increasing order, so each training set extends the previous).  Must
   hold the lock; slots [0 .. boundary-1] must be filled. *)
let rec model_for_locked t boundary =
  if boundary <= 0 then t.initial
  else
    match Hashtbl.find_opt t.history boundary with
    | Some m -> m
    | None ->
      let prev = model_for_locked t (boundary - t.epoch) in
      let samples =
        List.filter_map
          (fun id -> Hashtbl.find_opt t.slots id |> Option.join)
          (List.init boundary Fun.id)
      in
      let m =
        match Model.train samples with
        | Some m ->
          Obs.bump Obs.Learn_model_refreshes;
          Some m
        | None -> prev
      in
      Hashtbl.replace t.history boundary m;
      m

let latest_boundary t = t.contiguous / t.epoch * t.epoch

let model t =
  locked t (fun () -> model_for_locked t (latest_boundary t))

let fill_locked t id sample =
  if not (Hashtbl.mem t.slots id) then begin
    Hashtbl.replace t.slots id sample;
    if sample <> None then Obs.bump Obs.Learn_samples_recorded;
    while Hashtbl.mem t.slots t.contiguous do
      t.contiguous <- t.contiguous + 1
    done;
    Condition.broadcast t.cond
  end

let record t sample =
  locked t (fun () ->
      let id = t.frontier in
      t.frontier <- t.frontier + 1;
      fill_locked t id sample;
      (* Batch path: crossing an epoch boundary trains it right here, in
         record order, so the refresh schedule is a pure function of the
         request sequence. *)
      if t.contiguous mod t.epoch = 0 && t.contiguous > 0 then
        ignore (model_for_locked t t.contiguous);
      id)

let record_at t ~id sample =
  if id < 0 then invalid_arg "Online.record_at: negative id";
  locked t (fun () ->
      if id >= t.frontier then t.frontier <- id + 1;
      fill_locked t id sample)

let await t ~id =
  if id < 0 then invalid_arg "Online.await: negative id";
  let boundary = id / t.epoch * t.epoch in
  locked t (fun () ->
      while t.contiguous < boundary do
        Condition.wait t.cond t.mutex
      done;
      model_for_locked t boundary)

let recorded t = locked t (fun () -> t.contiguous)
