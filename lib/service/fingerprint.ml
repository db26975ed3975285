open Ljqo_catalog

type t = {
  n : int;
  exact : string;
  coarse : string;
  canon : int array;  (* canon.(p) = relation id at canonical position p *)
  cpos : int array;  (* cpos.(r) = canonical position of relation id r *)
}

(* ------------------------------------------------------------------ *)
(* 64-bit mixing.  Deterministic across runs and OCaml versions (unlike
   [Hashtbl.hash], whose algorithm is not pinned by the manual), so cache
   keys are stable enough to persist or compare across processes.  Both
   helpers are inlined so their [Int64] temporaries stay unboxed. *)

let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let[@inline] combine64 h v =
  mix64 (Int64.add (Int64.mul h 0x9E3779B97F4A7C15L) v)

(* ------------------------------------------------------------------ *)
(* Signature vectors: 64-bit words packed in [Bytes], read and written
   through the unboxed primitives, so a signature never becomes a heap
   block.  Indices are word positions; callers keep them in range. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] get b i = get64u b (i lsl 3)

let[@inline] set b i v = set64u b (i lsl 3) v

let words k = Bytes.create (8 * k)

(* In-place ascending sort of words [lo, hi) by signed value — the order
   [Int64.compare] gives.  Equal words are identical, so any correct sort
   yields the same sequence.  Insertion sort handles the short neighbor
   lists (about 30% faster on the whole kernel than heap sort alone); heap
   sort (no recursion, no allocation) handles long vertex and edge lists. *)

let insertion_sort b lo hi =
  for i = lo + 1 to hi - 1 do
    let v = get b i in
    let j = ref (i - 1) in
    while !j >= lo && get b !j > v do
      set b (!j + 1) (get b !j);
      decr j
    done;
    set b (!j + 1) v
  done

let sift_down b lo len i =
  let v = get b (lo + i) in
  let i = ref i and go = ref true in
  while !go do
    let c = (2 * !i) + 1 in
    if c >= len then go := false
    else begin
      let c =
        if c + 1 < len && get b (lo + c + 1) > get b (lo + c) then c + 1 else c
      in
      if get b (lo + c) > v then begin
        set b (lo + !i) (get b (lo + c));
        i := c
      end
      else go := false
    end
  done;
  set b (lo + !i) v

let sort b lo hi =
  let len = hi - lo in
  if len <= 16 then insertion_sort b lo hi
  else begin
    for i = (len / 2) - 1 downto 0 do
      sift_down b lo len i
    done;
    for last = len - 1 downto 1 do
      let top = get b lo in
      set b lo (get b (lo + last));
      set b (lo + last) top;
      sift_down b lo last 0
    done
  end

(* [combine64] folded over words [lo, hi), starting from [h]. *)
let[@inline] fold_words h b lo hi =
  let h = ref h in
  for k = lo to hi - 1 do
    h := combine64 !h (get b k)
  done;
  !h

(* ------------------------------------------------------------------ *)
(* Statistic bucketing: log-scale quantization, so "same bucket" means
   "same up to a relative factor".  [per_decade] buckets per factor of 10;
   non-positive inputs (a zero selectivity is legal) get a sentinel. *)

let exact_per_decade = 1000.0 (* ~0.23% relative resolution *)

let coarse_per_decade = 2.0 (* half-decades: tolerant of stat drift *)

let no_bucket = min_int / 2

let[@inline] bucket_of_log ~per_decade l =
  int_of_float (Float.round (per_decade *. l))

let bucket ~per_decade x =
  if x <= 0.0 then no_bucket else bucket_of_log ~per_decade (log10 x)

let exact_salt = 0x51ED270B270B2701L

let coarse_salt = 0x6C62272E07BB0142L

let edge_salt = 0x2545F4914F6CDD1DL

(* WL refinement rounds: enough for information to cross any plausible
   join-graph diameter at these sizes; depends only on [n], so it is
   relabeling-invariant. *)
let rounds_for n =
  let rec ilog2 acc k = if k <= 1 then acc else ilog2 (acc + 1) (k / 2) in
  3 + ilog2 0 (max 1 n)

(* An edge's signature: its endpoint signatures in signed order, then its
   selectivity bucket. *)
let[@inline] edge_sig lo hi b =
  combine64 (combine64 (combine64 edge_salt lo) hi) (Int64.of_int b)

let hex h = Printf.sprintf "%016Lx" h

(* Both keys in one pass.  Each key is WL refinement followed by a digest
   of the sorted signature multisets; the exact key starts every relation
   from its bucketed statistics, the coarse key from a constant (purely
   structural: shape plus bucketed selectivities).  The two refinements
   share one CSR adjacency whose entries carry both selectivity buckets,
   taken from a single [log10] per edge. *)
let compute q =
  let n = Query.n_relations q in
  let g = Query.graph q in
  (* CSR adjacency: row [v] is [off.(v) .. off.(v+1) - 1]. *)
  let off = Array.make (n + 1) 0 in
  let max_deg = ref 0 in
  for v = 0 to n - 1 do
    let d = Join_graph.degree g v in
    if d > !max_deg then max_deg := d;
    off.(v + 1) <- off.(v) + d
  done;
  let slots = off.(n) in
  let nbr = Array.make slots 0 in
  let eb = Array.make slots 0 and cb = Array.make slots 0 in
  let fill = Array.copy off in
  for u = 0 to n - 1 do
    let ids = Join_graph.neighbor_ids g u
    and sels = Join_graph.neighbor_sels g u in
    for k = 0 to Array.length ids - 1 do
      let v = ids.(k) in
      if v > u then begin
        let sel = sels.(k) in
        let l = log10 sel in
        let e, c =
          if sel <= 0.0 then (no_bucket, no_bucket)
          else
            ( bucket_of_log ~per_decade:exact_per_decade l,
              bucket_of_log ~per_decade:coarse_per_decade l )
        in
        let su = fill.(u) and sv = fill.(v) in
        nbr.(su) <- v;
        eb.(su) <- e;
        cb.(su) <- c;
        nbr.(sv) <- u;
        eb.(sv) <- e;
        cb.(sv) <- c;
        fill.(u) <- su + 1;
        fill.(v) <- sv + 1
      end
    done
  done;
  (* Initial labels: [esig]/[csig] hold the current exact and coarse
     signatures, [enext]/[cnext] the round being built. *)
  let esig = words n and csig = words n in
  let enext = words n and cnext = words n in
  let coarse0 = mix64 coarse_salt in
  for v = 0 to n - 1 do
    let c = bucket ~per_decade:exact_per_decade (Query.cardinality q v) in
    let d = bucket ~per_decade:exact_per_decade (Query.distinct_values q v) in
    set esig v
      (combine64
         (combine64 (mix64 exact_salt) (Int64.of_int c))
         (Int64.of_int d));
    set csig v coarse0
  done;
  (* Refinement: each round folds the sorted neighbor hashes into every
     vertex's signature, for both keys in the same sweep of the CSR rows. *)
  let hs_e = words !max_deg and hs_c = words !max_deg in
  for _ = 1 to rounds_for n do
    for v = 0 to n - 1 do
      let lo = off.(v) in
      let d = off.(v + 1) - lo in
      for k = 0 to d - 1 do
        let u = nbr.(lo + k) in
        set hs_e k (combine64 (Int64.of_int eb.(lo + k)) (get esig u));
        set hs_c k (combine64 (Int64.of_int cb.(lo + k)) (get csig u))
      done;
      sort hs_e 0 d;
      sort hs_c 0 d;
      set enext v (fold_words (mix64 (get esig v)) hs_e 0 d);
      set cnext v (fold_words (mix64 (get csig v)) hs_c 0 d)
    done;
    Bytes.blit enext 0 esig 0 (8 * n);
    Bytes.blit cnext 0 csig 0 (8 * n)
  done;
  (* Digest: the sorted vertex signatures, then the sorted edge
     signatures.  The round buffers hold the sorted vertex copies. *)
  let n_edges = slots / 2 in
  let ees = words n_edges and ces = words n_edges in
  let k = ref 0 in
  for u = 0 to n - 1 do
    for s = off.(u) to off.(u + 1) - 1 do
      let v = nbr.(s) in
      if v > u then begin
        let eu = get esig u and ev = get esig v in
        set ees !k
          (if eu <= ev then edge_sig eu ev eb.(s) else edge_sig ev eu eb.(s));
        let cu = get csig u and cv = get csig v in
        set ces !k
          (if cu <= cv then edge_sig cu cv cb.(s) else edge_sig cv cu cb.(s));
        incr k
      end
    done
  done;
  let digest salt sigs sorted edge_sigs =
    Bytes.blit sigs 0 sorted 0 (8 * n);
    sort sorted 0 n;
    sort edge_sigs 0 n_edges;
    let h = fold_words (combine64 salt (Int64.of_int n)) sorted 0 n in
    hex (mix64 (fold_words h edge_sigs 0 n_edges))
  in
  let exact = digest exact_salt esig enext ees in
  let coarse = digest coarse_salt csig cnext ces in
  (* Canonical order: primarily by the coarse (structural) signature, so
     coarse-matching queries put structurally corresponding relations at the
     same canonical positions; exact signatures break statistical ties.
     Remaining ties (WL-equivalent relations) fall back to the id — not
     invariant, but tied relations are structurally interchangeable to the
     resolution of the signature, and every cross-fingerprint plan mapping
     is re-validated by the caller anyway. *)
  let canon = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = compare (get csig a) (get csig b) in
      if c <> 0 then c
      else
        let c = compare (get esig a) (get esig b) in
        if c <> 0 then c else compare a b)
    canon;
  let cpos = Array.make n 0 in
  Array.iteri (fun p r -> cpos.(r) <- p) canon;
  { n; exact; coarse; canon; cpos }

let n_relations t = t.n

let exact_key t = t.exact

let coarse_key t = t.coarse

let canonical_order t = Array.copy t.canon

let to_canonical t plan =
  if Array.length plan <> t.n then
    invalid_arg "Fingerprint.to_canonical: plan length does not match query";
  Array.map
    (fun r ->
      if r < 0 || r >= t.n then
        invalid_arg "Fingerprint.to_canonical: relation id out of range";
      t.cpos.(r))
    plan

let of_canonical t cplan =
  if Array.length cplan <> t.n then
    invalid_arg "Fingerprint.of_canonical: plan length does not match query";
  Array.map
    (fun p ->
      if p < 0 || p >= t.n then
        invalid_arg "Fingerprint.of_canonical: canonical position out of range";
      t.canon.(p))
    cplan
