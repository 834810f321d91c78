(* Order statistics shared by the benchmark and the compare tool, and the
   seeded shuffle the workloads draw their orders with. *)

(* Fisher-Yates in place, with an explicit state. *)
let shuffle rst (a : 'a array) : 'a array =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rst (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile (p : float) (xs : float list) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), so the compare tool and an outside
   check of the same runs agree to the last digit. *)
let quartiles (xs : float list) : float * float * float =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

let median (xs : float list) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean (xs : float list) : float =
  match xs with
  | [] -> 0.
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))
