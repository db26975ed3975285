exception Exhausted

exception Deadline_exceeded

(* Wall-clock deadlines piggyback on the charge path: the *first* charge
   after creation reads the clock (so a deadline that is already expired —
   zero, negative, or elapsed during setup — kills the run immediately
   instead of up to a stride later), then every [deadline_check_stride]-th
   charge does.  The stride keeps the hot loop free of syscalls while still
   bounding how long a runaway method can overshoot its deadline (a few
   hundred estimation steps). *)
let deadline_check_stride = 256

type t = {
  limit : int;  (* 0 means unlimited *)
  mutable used : int;
  mutable pending_checkpoints : int list;  (* ascending *)
  mutable callback : int -> unit;
  mutable dead : bool;
  deadline : float option;  (* absolute clock value; None = no deadline *)
  clock : unit -> float;
  mutable charges_until_check : int;
  mutable deadline_hit : bool;
}

let wall_clock () = Unix.gettimeofday ()

let create ?(checkpoints = []) ?deadline ?(clock = wall_clock) ~ticks () =
  let limit = if ticks <= 0 then 0 else ticks in
  let pending =
    List.sort_uniq compare
      (List.filter (fun c -> c > 0 && (limit = 0 || c <= limit)) checkpoints)
  in
  let deadline =
    match deadline with
    | Some d when d >= 0.0 -> Some (clock () +. d)
    | Some _ -> Some (clock ())  (* negative deadline: already expired *)
    | None -> None
  in
  {
    limit;
    used = 0;
    pending_checkpoints = pending;
    callback = ignore;
    dead = false;
    deadline;
    clock;
    charges_until_check = (match deadline with Some _ -> 1 | None -> deadline_check_stride);
    deadline_hit = false;
  }

let unlimited () = create ~ticks:0 ()

let set_checkpoint_callback t f = t.callback <- f

(* Top-level recursion rather than a local loop closure: this runs on every
   charge, and a closure would be allocated each time. *)
let rec fire_crossed t =
  match t.pending_checkpoints with
  | c :: rest when t.used >= c ->
    t.pending_checkpoints <- rest;
    t.callback c;
    fire_crossed t
  | _ -> ()

let check_deadline t =
  match t.deadline with
  | None -> ()
  | Some dl ->
    t.charges_until_check <- t.charges_until_check - 1;
    if t.charges_until_check <= 0 then begin
      t.charges_until_check <- deadline_check_stride;
      Ljqo_obs.Obs.bump Ljqo_obs.Obs.Deadline_reads;
      if t.clock () >= dl then begin
        t.dead <- true;
        t.deadline_hit <- true;
        raise Deadline_exceeded
      end
    end

let charge t k =
  if t.dead then raise (if t.deadline_hit then Deadline_exceeded else Exhausted);
  Ljqo_obs.Obs.charged k;
  t.used <- t.used + k;
  fire_crossed t;
  check_deadline t;
  if t.limit > 0 && t.used >= t.limit then begin
    t.dead <- true;
    raise Exhausted
  end

let used t = t.used

let limit t = if t.limit = 0 then None else Some t.limit

let remaining t =
  match limit t with None -> None | Some l -> Some (max 0 (l - t.used))

let exhausted t = t.dead

let deadline_hit t = t.deadline_hit

let default_ticks_per_unit = 60

let ticks_for_limit ?(ticks_per_unit = default_ticks_per_unit) ~t_factor ~n_joins () =
  let n = float_of_int n_joins in
  let ticks = t_factor *. n *. n *. float_of_int ticks_per_unit in
  max 1 (int_of_float ticks)
