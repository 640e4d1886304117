(* Tests for the statistics library: latency histograms over the paper's
   Figure 16 buckets, table/figure rendering, and distribution utilities. *)

module Hist = Ferrite_stats.Latency_histogram
module Table = Ferrite_stats.Table
module Figure = Ferrite_stats.Figure
module Dist = Ferrite_stats.Dist

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ---------- histogram ---------- *)

let test_bucket_boundaries () =
  check_int "<3k" 0 (Hist.bucket_of 0);
  check_int "2999" 0 (Hist.bucket_of 2_999);
  check_int "3000 starts next" 1 (Hist.bucket_of 3_000);
  check_int "9999" 1 (Hist.bucket_of 9_999);
  check_int "10k" 2 (Hist.bucket_of 10_000);
  check_int "1M" 4 (Hist.bucket_of 1_000_000);
  check_int "999,999,999" 6 (Hist.bucket_of 999_999_999);
  check_int ">1G" 7 (Hist.bucket_of 2_000_000_000);
  check_int "labels match buckets" Hist.bucket_count (List.length Hist.bucket_labels)

let test_histogram_counts () =
  let h = Hist.of_list [ 100; 200; 5_000; 50_000; 50_001; 2_000_000_000 ] in
  check_int "total" 6 (Hist.total h);
  let c = Hist.counts h in
  check_int "bucket0" 2 c.(0);
  check_int "bucket1" 1 c.(1);
  check_int "bucket2" 2 c.(2);
  check_int "bucket7" 1 c.(7)

let test_fraction_below () =
  let h = Hist.of_list [ 100; 200; 5_000; 50_000 ] in
  check_float "below 3k" 0.5 (Hist.fraction_below h ~cycles:3_000);
  check_float "below 10k" 0.75 (Hist.fraction_below h ~cycles:10_000);
  check_float "empty" 0.0 (Hist.fraction_below (Hist.create ()) ~cycles:3_000)

let test_fraction_below_interpolates () =
  (* regression: fraction_below used to truncate to bucket granularity — the
     4,000-cycle sample below the 5,000 threshold was dropped along with the
     rest of its 3k-10k bucket, reporting 1/3 here instead of the
     interpolated (1 + 2/7 * 2) / 3 = 11/21. *)
  let h = Hist.of_list [ 1_000; 4_000; 6_000 ] in
  check_float "interpolated" (11.0 /. 21.0) (Hist.fraction_below h ~cycles:5_000);
  (* exact bucket bounds: the share term is zero, so the pre-fix values are
     preserved (the Fig. 8/9 shape checks call at 3k/10k/100k exactly) *)
  check_float "exact bound 3k" (1.0 /. 3.0) (Hist.fraction_below h ~cycles:3_000);
  check_float "exact bound 10k" 1.0 (Hist.fraction_below h ~cycles:10_000);
  (* the open-ended >1G bucket has no width to interpolate over: the value
     snaps down to the closed buckets' sum *)
  let g = Hist.of_list [ 100; 2_000_000_000 ] in
  check_float "open-ended bucket" 0.5 (Hist.fraction_below g ~cycles:3_000_000_000)

let test_merge () =
  let a = Hist.of_list [ 1; 2 ] and b = Hist.of_list [ 5_000 ] in
  let m = Hist.merge a b in
  check_int "merged total" 3 (Hist.total m);
  check_int "bucket0" 2 (Hist.counts m).(0)

let prop_fractions_sum_to_one =
  QCheck.Test.make ~name:"fractions sum to 1" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (int_bound 2_000_000))
    (fun samples ->
      let h = Hist.of_list samples in
      let s = Array.fold_left ( +. ) 0.0 (Hist.fractions h) in
      abs_float (s -. 1.0) < 1e-9)

(* ---------- tables ---------- *)

let test_table_render_plain () =
  let t = Table.render ~header:[ "name"; "value" ] [ [ "alpha"; "1" ]; [ "beta"; "22" ] ] in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "header present" true (contains t "name");
  check_bool "cells present" true (contains t "alpha" && contains t "22");
  check_bool "ruled" true (contains t "+--");
  (* short rows are padded, long rows truncated *)
  let t2 = Table.render ~header:[ "a"; "b" ] [ [ "only" ] ] in
  check_bool "short row ok" true (contains t2 "only")

let test_table_grouped_long_label () =
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  (* a group label far wider than the columns: the table widens instead of
     silently chopping the label *)
  let label = "density:fs=0.30,mm=0.25,net=0.20,drivers=0.15,kernel=0.10" in
  let t =
    Table.render_grouped ~header:[ "a"; "b" ]
      [ (label, [ [ "x"; "1" ] ]); ("short", [ [ "y"; "2" ] ]) ]
  in
  check_bool "long label intact" true (contains t label);
  check_bool "short label intact" true (contains t "short");
  (* every line of the box stays the same width *)
  let lines = String.split_on_char '\n' t in
  let w = String.length (List.hd lines) in
  List.iter (fun l -> check_bool "uniform width" true (String.length l = w)) lines

let test_pct_formatting () =
  Alcotest.(check string) "pct" "50.0%" (Table.pct 1 2);
  Alcotest.(check string) "zero denominator" "-" (Table.pct 1 0);
  Alcotest.(check string) "count pct" "3 (30.0%)" (Table.count_pct 3 10)

(* ---------- figures ---------- *)

let test_figure_bars () =
  let s = Figure.bars ~title:"demo" [ ("aa", 0.5); ("b", 1.0) ] in
  let lines = String.split_on_char '\n' s in
  check_bool "title first" true (List.hd lines = "demo");
  check_bool "full bar has width hashes" true
    (List.exists
       (fun l ->
         let hashes = String.fold_left (fun n c -> if c = '#' then n + 1 else n) 0 l in
         hashes = 40)
       lines)

let test_figure_distribution_counts () =
  let s = Figure.distribution ~title:"d" [ ("x", 3); ("y", 1) ] in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "total shown" true (contains "(total 4)");
  check_bool "percent shown" true (contains "75.0%")

let test_side_by_side () =
  let s = Figure.side_by_side "aa\nbb" "XX\nYY\nZZ" in
  let lines = String.split_on_char '\n' s in
  check_bool "first line joins" true
    (match lines with l :: _ -> String.length l > 4 | [] -> false);
  check_int "uses max height (+ trailing)" 4 (List.length lines)

(* ---------- dist ---------- *)

let test_normalize () =
  let f = Dist.normalize [| 1; 3 |] in
  check_float "1/4" 0.25 f.(0);
  check_float "3/4" 0.75 f.(1);
  let z = Dist.normalize [| 0; 0 |] in
  check_float "zeros stay zero" 0.0 z.(0)

let test_total_variation () =
  check_float "identical" 0.0 (Dist.total_variation [| 0.5; 0.5 |] [| 0.5; 0.5 |]);
  check_float "disjoint" 1.0 (Dist.total_variation [| 1.0; 0.0 |] [| 0.0; 1.0 |]);
  (match Dist.total_variation [| 1.0 |] [| 0.5; 0.5 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length mismatch accepted")

let test_winner_and_fraction () =
  let counts = [ ("a", 3); ("b", 7); ("c", 1) ] in
  check_bool "winner" true (Dist.winner counts = Some "b");
  check_float "fraction" (7.0 /. 11.0) (Dist.fraction_of counts "b");
  check_bool "empty winner" true (Dist.winner ([] : (string * int) list) = None)

let test_wilson () =
  let lo, hi = Dist.wilson_interval ~successes:50 ~trials:100 in
  check_bool "contains p" true (lo < 0.5 && hi > 0.5);
  check_bool "reasonable width" true (hi -. lo < 0.25);
  let lo0, hi0 = Dist.wilson_interval ~successes:0 ~trials:0 in
  check_float "no data lo" 0.0 lo0;
  check_float "no data hi" 1.0 hi0

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ferrite_stats"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "counts" `Quick test_histogram_counts;
          Alcotest.test_case "fraction_below" `Quick test_fraction_below;
          Alcotest.test_case "fraction_below interpolates" `Quick
            test_fraction_below_interpolates;
          Alcotest.test_case "merge" `Quick test_merge;
          q prop_fractions_sum_to_one;
        ] );
      ( "tables",
        [
          Alcotest.test_case "render" `Quick test_table_render_plain;
          Alcotest.test_case "grouped long label" `Quick test_table_grouped_long_label;
          Alcotest.test_case "pct" `Quick test_pct_formatting;
        ] );
      ( "figures",
        [
          Alcotest.test_case "bars" `Quick test_figure_bars;
          Alcotest.test_case "distribution" `Quick test_figure_distribution_counts;
          Alcotest.test_case "side by side" `Quick test_side_by_side;
        ] );
      ( "dist",
        [
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "total variation" `Quick test_total_variation;
          Alcotest.test_case "winner/fraction" `Quick test_winner_and_fraction;
          Alcotest.test_case "wilson interval" `Quick test_wilson;
        ] );
    ]
