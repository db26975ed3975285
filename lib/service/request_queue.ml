(* Bounded MPMC FIFO over one mutex and one condition variable.  The
   optimizer dominates every request by orders of magnitude, so a simple
   lock-per-operation queue is nowhere near the bottleneck; what matters
   here is the exact close/drain semantics (pop returns None only once the
   queue is closed *and* empty) and strict FIFO hand-out. *)

type 'a t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  items : 'a Queue.t;
  capacity : int;
  mutable closed : bool;
  mutable max_depth : int;
}

type push_result = Pushed | Full | Closed

let create ~capacity () =
  if capacity < 1 then invalid_arg "Request_queue.create: capacity must be >= 1";
  {
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    items = Queue.create ();
    capacity;
    closed = false;
    max_depth = 0;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let try_push t x =
  with_lock t (fun () ->
      if t.closed then Closed
      else if Queue.length t.items >= t.capacity then Full
      else begin
        Queue.push x t.items;
        let depth = Queue.length t.items in
        if depth > t.max_depth then t.max_depth <- depth;
        Condition.signal t.nonempty;
        Pushed
      end)

let pop t =
  with_lock t (fun () ->
      let rec wait () =
        if not (Queue.is_empty t.items) then Some (Queue.pop t.items)
        else if t.closed then None
        else begin
          Condition.wait t.nonempty t.mutex;
          wait ()
        end
      in
      wait ())

let close t =
  with_lock t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Condition.broadcast t.nonempty
      end)

let length t = with_lock t (fun () -> Queue.length t.items)

let max_depth t = with_lock t (fun () -> t.max_depth)
