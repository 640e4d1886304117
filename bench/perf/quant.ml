(* Order statistics. [quartiles] matches Python's
   [statistics.quantiles(values, n=4)] (the default "exclusive" method), so
   the spreads this benchmark reports are the ones a reader recomputes. *)

let sorted xs = List.sort compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's exclusive method, integer arithmetic and clamping included. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then (median xs, median xs, median xs)
  else
    let q k =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (k * m / 4)) in
      let delta = (k * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* Interquartile range as a share of the median. *)
let iqr_share xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. abs_float q2

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
