(* The splitmix64 state lives unboxed in an 8-byte [Bytes], read and
   written through the unboxed primitives, so advancing the stream never
   allocates an [Int64] block. *)
type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* splitmix64 constants, from the reference implementation. *)
let gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  set64u t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] next t =
  let s = Int64.add (get64u t 0) gamma in
  set64u t 0 s;
  mix s

let[@inline] bits64 t = next t

let split t = of_state (mix (next t))

let split_at t i =
  (* Derive child [i] from the current state without consuming it. *)
  let s = Int64.add (get64u t 0) (Int64.mul gamma (Int64.of_int (i + 1))) in
  of_state (mix (Int64.logxor (mix s) 0x2545F4914F6CDD1DL))

(* The draw on [0, n64 - 1] that the mixed state [z] yields, or -1 when
   rejection sampling discards it: to avoid modulo bias, a draw is
   rejected when its block of [n] values is cut off by the top of the
   63-bit range. *)
let[@inline] uniform z n64 =
  let bits = Int64.shift_right_logical z 1 in
  let r = Int64.rem bits n64 in
  if Int64.(sub (add (sub bits r) n64) 1L) >= 0L then Int64.to_int r else -1

let int t n =
  assert (n > 0);
  (* A loop rather than a recursive closure, so the int64 temporaries stay
     in registers. *)
  let n64 = Int64.of_int n in
  let v = ref (-1) in
  while !v < 0 do
    v := uniform (next t) n64
  done;
  !v

let int_array t ~len n =
  assert (n > 0);
  (* [int]'s loop with the state in a local, read from [t] once and written
     back once, so successive draws do not wait on a store and a load. *)
  let n64 = Int64.of_int n in
  let a = Array.make len 0 in
  let s = ref (get64u t 0) in
  for i = 0 to len - 1 do
    let v = ref (-1) in
    while !v < 0 do
      s := Int64.add !s gamma;
      v := uniform (mix !s) n64
    done;
    Array.unsafe_set a i !v
  done;
  set64u t 0 !s;
  a

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let[@inline] unit_float t =
  (* 53 random bits mapped to [0,1). *)
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let[@inline] float t x = unit_float t *. x

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t p = unit_float t < p

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Rng.choose_list: empty list"
  | _ -> List.nth l (int t (List.length l))
