(* Summary statistics and the benchmark's acceptance arithmetic.  Kept
   free of I/O so the rules can be unit-tested. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let minimum xs = match sorted xs with [||] -> nan | a -> a.(0)

(* Nearest-rank percentile: the smallest sample with at least [q] of the
   samples at or below it. *)
let rank ~n q = max 1 (int_of_float (ceil ((q *. float_of_int n) -. 1e-9)))

let percentile xs q =
  match sorted xs with [||] -> nan | a -> a.(rank ~n:(Array.length a) q - 1)

(* A percentile is reported only when at least [min_beyond] samples lie
   above its rank; fewer make it a statement about a handful of
   outliers. *)
let min_beyond = 10
let samples_beyond ~n q = n - rank ~n q
let percentile_reportable ~n q = n > 0 && samples_beyond ~n q >= min_beyond

let fail_pct ~attempted ~failed =
  if attempted <= 0 then 100.0 else 100.0 *. float_of_int failed /. float_of_int attempted

(* Reconciliation: the per-layer times of a traced run must add up to
   its end-to-end time within [reconcile_limit_pct]. *)
let reconcile_limit_pct = 5.0

let reconcile_gap_pct ~layers ~total =
  let sum = List.fold_left ( +. ) 0.0 layers in
  if total <= 0.0 then infinity else 100.0 *. Float.abs (sum -. total) /. total

let reconciles ~layers ~total = reconcile_gap_pct ~layers ~total <= reconcile_limit_pct

let valid_metric_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s
