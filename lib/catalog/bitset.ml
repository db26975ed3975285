type t = { w0 : int; w1 : int; tail : int array }

(* 63-bit words need a 64-bit platform. *)
let () = assert (Sys.int_size >= 63)

let word_bits = 63

let inline_words = 2

let inline_size = inline_words * word_bits

let words_needed n = if n <= 0 then 0 else ((n - 1) / word_bits) + 1

(* Canonical-form invariant: [tail] has no trailing zero words, and the empty
   tail is always this one shared array.  Canonicalization makes structural
   equality coincide with set equality whatever construction path produced a
   value — which is what lets DP key polymorphic hashtables on [t]. *)
let no_tail = [||]

let empty = { w0 = 0; w1 = 0; tail = no_tail }

let word_mask = -1 lsr (Sys.int_size - word_bits)  (* 63 one bits *)

(* Drop trailing zero words.  Only ever applied to freshly built arrays, so
   returning the argument unchanged never aliases a caller-visible array. *)
let trim tail =
  let last = ref (Array.length tail - 1) in
  while !last >= 0 && tail.(!last) = 0 do
    decr last
  done;
  if !last < 0 then no_tail
  else if !last = Array.length tail - 1 then tail
  else Array.sub tail 0 (!last + 1)

let check i name =
  if i < 0 then invalid_arg ("Bitset." ^ name ^ ": negative id")

let full n =
  if n < 0 then invalid_arg "Bitset.full: negative size";
  if n <= word_bits then
    {
      w0 = (if n = 0 then 0 else word_mask lsr (word_bits - n));
      w1 = 0;
      tail = no_tail;
    }
  else if n <= inline_size then
    { w0 = word_mask; w1 = word_mask lsr (inline_size - n); tail = no_tail }
  else begin
    let nw = words_needed n in
    let tail = Array.make (nw - inline_words) word_mask in
    (* bits occupied in the last word: 1 .. word_bits *)
    let rem = n - ((nw - 1) * word_bits) in
    tail.(nw - inline_words - 1) <- word_mask lsr (word_bits - rem);
    { w0 = word_mask; w1 = word_mask; tail }
  end

let singleton i =
  check i "singleton";
  if i < word_bits then { empty with w0 = 1 lsl i }
  else if i < inline_size then { empty with w1 = 1 lsl (i - word_bits) }
  else begin
    let j = (i / word_bits) - inline_words in
    let tail = Array.make (j + 1) 0 in
    tail.(j) <- 1 lsl (i mod word_bits);
    { w0 = 0; w1 = 0; tail }
  end

let add i s =
  check i "add";
  if i < word_bits then { s with w0 = s.w0 lor (1 lsl i) }
  else if i < inline_size then { s with w1 = s.w1 lor (1 lsl (i - word_bits)) }
  else begin
    let j = (i / word_bits) - inline_words in
    let tail = Array.make (max (Array.length s.tail) (j + 1)) 0 in
    Array.blit s.tail 0 tail 0 (Array.length s.tail);
    tail.(j) <- tail.(j) lor (1 lsl (i mod word_bits));
    { s with tail }
  end

let remove i s =
  check i "remove";
  if i < word_bits then { s with w0 = s.w0 land lnot (1 lsl i) }
  else if i < inline_size then
    { s with w1 = s.w1 land lnot (1 lsl (i - word_bits)) }
  else begin
    let j = (i / word_bits) - inline_words in
    if j >= Array.length s.tail then s
    else begin
      let tail = Array.copy s.tail in
      tail.(j) <- tail.(j) land lnot (1 lsl (i mod word_bits));
      { s with tail = trim tail }
    end
  end

let mem i s =
  check i "mem";
  if i < word_bits then s.w0 land (1 lsl i) <> 0
  else if i < inline_size then s.w1 land (1 lsl (i - word_bits)) <> 0
  else
    let j = (i / word_bits) - inline_words in
    j < Array.length s.tail && s.tail.(j) land (1 lsl (i mod word_bits)) <> 0

let is_empty s = s.w0 = 0 && s.w1 = 0 && Array.length s.tail = 0

let word s k =
  if k = 0 then s.w0
  else if k = 1 then s.w1
  else
    let j = k - inline_words in
    if j < Array.length s.tail then Array.unsafe_get s.tail j else 0

let union a b =
  let la = Array.length a.tail and lb = Array.length b.tail in
  let tail =
    if la = 0 then b.tail
    else if lb = 0 then a.tail
    else
      (* The longer tail's top word survives, so the result stays trimmed. *)
      Array.init (max la lb) (fun j ->
          (if j < la then Array.unsafe_get a.tail j else 0)
          lor if j < lb then Array.unsafe_get b.tail j else 0)
  in
  { w0 = a.w0 lor b.w0; w1 = a.w1 lor b.w1; tail }

let inter a b =
  let l = min (Array.length a.tail) (Array.length b.tail) in
  let tail =
    if l = 0 then no_tail
    else
      trim
        (Array.init l (fun j ->
             Array.unsafe_get a.tail j land Array.unsafe_get b.tail j))
  in
  { w0 = a.w0 land b.w0; w1 = a.w1 land b.w1; tail }

let diff a b =
  let la = Array.length a.tail and lb = Array.length b.tail in
  let tail =
    if la = 0 then no_tail
    else if lb = 0 then a.tail
    else
      trim
        (Array.init la (fun j ->
             Array.unsafe_get a.tail j
             land if j < lb then lnot (Array.unsafe_get b.tail j) else -1))
  in
  { w0 = a.w0 land lnot b.w0; w1 = a.w1 land lnot b.w1; tail }

let intersects a b =
  a.w0 land b.w0 <> 0
  || a.w1 land b.w1 <> 0
  ||
  let l = min (Array.length a.tail) (Array.length b.tail) in
  let rec go j =
    j < l
    && (Array.unsafe_get a.tail j land Array.unsafe_get b.tail j <> 0
       || go (j + 1))
  in
  go 0

let intersects_words s arr =
  let len = Array.length arr in
  (len > 0 && s.w0 land Array.unsafe_get arr 0 <> 0)
  || (len > 1 && s.w1 land Array.unsafe_get arr 1 <> 0)
  ||
  let lt = Array.length s.tail in
  let rec go j =
    j < lt
    && inline_words + j < len
    && (Array.unsafe_get s.tail j land Array.unsafe_get arr (inline_words + j)
        <> 0
       || go (j + 1))
  in
  go 0

let subset a b =
  a.w0 land lnot b.w0 = 0
  && a.w1 land lnot b.w1 = 0
  &&
  let la = Array.length a.tail in
  (* Tails are trimmed, so a longer tail has a set bit beyond b's width. *)
  la <= Array.length b.tail
  &&
  let rec go j =
    j >= la
    || (Array.unsafe_get a.tail j land lnot (Array.unsafe_get b.tail j) = 0
       && go (j + 1))
  in
  go 0

let equal a b =
  a.w0 = b.w0
  && a.w1 = b.w1
  &&
  let la = Array.length a.tail in
  la = Array.length b.tail
  &&
  let rec go j =
    j >= la || (Array.unsafe_get a.tail j = Array.unsafe_get b.tail j && go (j + 1))
  in
  go 0

(* Lexicographic from the highest word down.  Tails are trimmed, so a longer
   tail means a larger highest element; for two inline sets this is exactly
   the historic [(w1, w0)] order, keeping DP frontier sorts (and hence every
   fixed-seed output at n <= 126) stable across the width change. *)
let compare a b =
  let la = Array.length a.tail and lb = Array.length b.tail in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go j =
      if j < 0 then
        let c = Stdlib.compare a.w1 b.w1 in
        if c <> 0 then c else Stdlib.compare a.w0 b.w0
      else
        let c = Stdlib.compare a.tail.(j) b.tail.(j) in
        if c <> 0 then c else go (j - 1)
    in
    go (la - 1)

(* Every word is multiplied in, and each word's high bits are folded back
   down before mixing, so sets differing only in high ids still spread over
   the low bits a power-of-two hashtable actually uses.  (The previous
   [(w0 * m) lxor w1] left [w1] unscaled: all subsets of ids >= 63 + k
   collided modulo [2^k].)  The golden-ratio round constant keeps the state
   moving through zero words, so word *position* is mixed in too — without
   it, singletons at the same bit of different tail words hash alike. *)
let hash s =
  let m = 486187739 in
  let mix h w =
    let x = w * m in
    (((h lxor x) + 0x9e3779b9) * m) lxor (x lsr 31)
  in
  let h = mix (mix 0 s.w0) s.w1 in
  Array.fold_left mix h s.tail land max_int

let popcount_word x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let cardinal s =
  let c = ref (popcount_word s.w0 + popcount_word s.w1) in
  Array.iter (fun w -> c := !c + popcount_word w) s.tail;
  !c

(* Index of the lowest set bit of a non-zero word, by binary search. *)
let ntz x =
  let n = ref 0 and x = ref x in
  if !x land 0x7FFFFFFF = 0 then begin
    n := !n + 31;
    x := !x lsr 31
  end;
  if !x land 0xFFFF = 0 then begin
    n := !n + 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then incr n;
  !n

let iter_word f base w =
  let w = ref w in
  while !w <> 0 do
    f (base + ntz !w);
    w := !w land (!w - 1)
  done

let iter f s =
  iter_word f 0 s.w0;
  iter_word f word_bits s.w1;
  Array.iteri
    (fun j w -> iter_word f ((inline_words + j) * word_bits) w)
    s.tail

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let min_elt s =
  if s.w0 <> 0 then ntz s.w0
  else if s.w1 <> 0 then word_bits + ntz s.w1
  else begin
    let lt = Array.length s.tail in
    let rec go j =
      if j >= lt then invalid_arg "Bitset.min_elt: empty set"
      else
        let w = s.tail.(j) in
        if w <> 0 then ((inline_words + j) * word_bits) + ntz w else go (j + 1)
    in
    go 0
  end

let to_list s = List.rev (fold (fun i acc -> i :: acc) s [])

let of_list l = List.fold_left (fun acc i -> add i acc) empty l
