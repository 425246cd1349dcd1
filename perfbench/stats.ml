(* Order statistics over float samples. *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the two closest ranks (the "type 7"
   estimator): [percentile a 0.] is the minimum, [100.] the maximum. *)
let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if not (p >= 0.0 && p <= 100.0) then
    invalid_arg "Stats.percentile: rank outside [0, 100]";
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float rank in
  let hi = min (n - 1) (lo + 1) in
  let frac = rank -. float_of_int lo in
  s.(lo) +. (frac *. (s.(hi) -. s.(lo)))

let percentile samples p = percentile_sorted (sorted samples) p
let median samples = percentile samples 50.0

let mean samples =
  let n = Array.length samples in
  if n = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 samples /. float_of_int n

let sum samples = Array.fold_left ( +. ) 0.0 samples

(* A ratio whose base may be empty: [0] when nothing was attempted. *)
let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
