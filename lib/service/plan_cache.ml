module Obs = Ljqo_obs.Obs

type entry = { cplan : int array; cost : float; ticks : int }

type stats = {
  hits : int;
  coarse_hits : int;
  misses : int;
  insertions : int;
  evictions : int;
}

type node = { mutable entry : entry; coarse : string; mutable last_use : int }

type shard = {
  lock : Mutex.t;
  table : (string, node) Hashtbl.t;
  mutable stamp : int;  (** recency clock, bumped by touch/put *)
  cap : int;
}

type coarse_shard = {
  c_lock : Mutex.t;
  c_table : (string, string) Hashtbl.t;  (** coarse key -> exact key *)
}

type t = {
  shards : shard array;
  coarse_shards : coarse_shard array;
  n_hits : int Atomic.t;
  n_coarse_hits : int Atomic.t;
  n_misses : int Atomic.t;
  n_insertions : int Atomic.t;
  n_evictions : int Atomic.t;
}

(* FNV-1a over the key bytes: deterministic shard routing (Hashtbl.hash
   would work today but its algorithm is not a documented contract).  The
   offset basis is the standard one truncated to OCaml's 63-bit int. *)
let fnv1a s =
  let h = ref 0x0bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  !h land max_int

let create ?(shards = 8) ~capacity () =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity must be >= 1";
  if shards < 1 then invalid_arg "Plan_cache.create: shards must be >= 1";
  let per_shard = max 1 ((capacity + shards - 1) / shards) in
  {
    shards =
      Array.init shards (fun _ ->
          {
            lock = Mutex.create ();
            table = Hashtbl.create (2 * per_shard);
            stamp = 0;
            cap = per_shard;
          });
    coarse_shards =
      Array.init shards (fun _ ->
          { c_lock = Mutex.create (); c_table = Hashtbl.create (2 * per_shard) });
    n_hits = Atomic.make 0;
    n_coarse_hits = Atomic.make 0;
    n_misses = Atomic.make 0;
    n_insertions = Atomic.make 0;
    n_evictions = Atomic.make 0;
  }

let capacity t =
  Array.fold_left (fun acc s -> acc + s.cap) 0 t.shards

let shard_of t key = t.shards.(fnv1a key mod Array.length t.shards)

let coarse_shard_of t key =
  t.coarse_shards.(fnv1a key mod Array.length t.coarse_shards)

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let length t =
  Array.fold_left
    (fun acc s -> acc + with_lock s.lock (fun () -> Hashtbl.length s.table))
    0 t.shards

let find_exact t key =
  let s = shard_of t key in
  with_lock s.lock (fun () ->
      Option.map (fun node -> node.entry) (Hashtbl.find_opt s.table key))

let find_coarse t key =
  let cs = coarse_shard_of t key in
  match with_lock cs.c_lock (fun () -> Hashtbl.find_opt cs.c_table key) with
  | None -> None
  | Some exact -> find_exact t exact

let lookup t ~exact ~coarse ~validate =
  match find_exact t exact with
  | Some e when validate e ->
    Atomic.incr t.n_hits;
    Obs.bump Obs.Cache_hits;
    `Exact e
  | _ -> (
    match find_coarse t coarse with
    | Some e when validate e ->
      Atomic.incr t.n_coarse_hits;
      Obs.bump Obs.Cache_coarse_hits;
      `Coarse e
    | _ ->
      Atomic.incr t.n_misses;
      Obs.bump Obs.Cache_misses;
      `Miss)

let touch t key =
  let s = shard_of t key in
  with_lock s.lock (fun () ->
      match Hashtbl.find_opt s.table key with
      | None -> ()
      | Some node ->
        s.stamp <- s.stamp + 1;
        node.last_use <- s.stamp)

(* Evict the least-recently-used entry of a full shard.  Shards are small
   (capacity / shards), so a scan is simpler — and no slower at these
   sizes — than a linked list that would need its own invariants under the
   replace-if-cheaper admission path. *)
let evict_lru s =
  let victim = ref None in
  Hashtbl.iter
    (fun key node ->
      match !victim with
      | Some (_, best) when best <= node.last_use -> ()
      | _ -> victim := Some (key, node.last_use))
    s.table;
  match !victim with
  | None -> None
  | Some (key, _) ->
    let coarse = (Hashtbl.find s.table key).coarse in
    Hashtbl.remove s.table key;
    Some (key, coarse)

let put t ~exact ~coarse entry =
  let s = shard_of t exact in
  let inserted, evicted =
    with_lock s.lock (fun () ->
        s.stamp <- s.stamp + 1;
        match Hashtbl.find_opt s.table exact with
        | Some node ->
          node.last_use <- s.stamp;
          if entry.cost < node.entry.cost then begin
            node.entry <- entry;
            (true, None)
          end
          else (false, None)
        | None ->
          let evicted =
            if Hashtbl.length s.table >= s.cap then evict_lru s else None
          in
          Hashtbl.add s.table exact { entry; coarse; last_use = s.stamp };
          (true, evicted))
  in
  (* Coarse-index maintenance happens outside the exact-shard lock: at most
     one shard lock is ever held, whatever keys hash where. *)
  (match evicted with
  | None -> ()
  | Some (evicted_exact, evicted_coarse) ->
    Atomic.incr t.n_evictions;
    Obs.bump Obs.Cache_evictions;
    let cs = coarse_shard_of t evicted_coarse in
    with_lock cs.c_lock (fun () ->
        match Hashtbl.find_opt cs.c_table evicted_coarse with
        | Some e when e = evicted_exact -> Hashtbl.remove cs.c_table evicted_coarse
        | _ -> ()));
  if inserted then begin
    Atomic.incr t.n_insertions;
    Obs.bump Obs.Cache_insertions;
    let cs = coarse_shard_of t coarse in
    with_lock cs.c_lock (fun () -> Hashtbl.replace cs.c_table coarse exact)
  end

let stats t =
  {
    hits = Atomic.get t.n_hits;
    coarse_hits = Atomic.get t.n_coarse_hits;
    misses = Atomic.get t.n_misses;
    insertions = Atomic.get t.n_insertions;
    evictions = Atomic.get t.n_evictions;
  }
