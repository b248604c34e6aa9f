(* Order statistics for the benchmark's reports and summaries. *)

(* nan for no samples, which a record prints as null. *)
let median xs =
  if Array.length xs = 0 then nan else Fbb_util.Stats.percentile xs 50.0

(* 1-based nearest rank of the [pct]-th percentile: ceil (pct n / 100). *)
let rank ~pct n = ((pct * n) + 99) / 100

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let percentile ~pct xs =
  let n = Array.length xs in
  if n = 0 then nan else (sorted xs).(rank ~pct n - 1)

(* The p90 of [n] samples has at least 10 samples beyond it — the most a
   tail statistic may claim — exactly when n >= 100, which is why every
   serving step sends at least 120 requests. Batch workloads have 3 or
   8 units, so theirs is the slowest unit. *)
let p90 = percentile ~pct:90

let max_or_zero xs = Array.fold_left Float.max 0.0 xs

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)]
   (method "exclusive"), the rule the acceptance check uses. Needs at
   least two samples. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Pctl.quartiles: fewer than two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)
