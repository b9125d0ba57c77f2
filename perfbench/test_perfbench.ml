(* Tests of the benchmark's own code: input generation, metric names and
   the acceptance arithmetic. *)

let bundles designs = List.map (fun d -> (d.Pb_gen.name, d.Pb_gen.bundle)) designs

let generator_deterministic () =
  let a = bundles (Pb_gen.serve_pool ~seed:7) in
  let b = bundles (Pb_gen.serve_pool ~seed:7) in
  Alcotest.(check (list (pair string string))) "same seed, same bytes" a b;
  let c = bundles (Pb_gen.serve_pool ~seed:8) in
  Alcotest.(check bool) "another seed, another order" true (a <> c);
  Alcotest.(check (list (pair string string)))
    "the same designs" (List.sort compare a) (List.sort compare c)

let default_seed_is_suite () =
  let ours = bundles (Pb_gen.designs ~workload:"paper_timed" ~seed:Pb_gen.default_seed) in
  let suite =
    List.map (fun c -> (c.Suite.case_name, Pb_gen.bundle_of_input c.Suite.input)) (Suite.all ())
  in
  Alcotest.(check (list (pair string string))) "default seed = Suite.all ()" suite ours

let metric_names () =
  let names = List.map fst (Pb_metrics.end_to_end @ Pb_metrics.per_layer) in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " matches [A-Za-z0-9_.-]+") true (Pb_stats.valid_metric_name n))
    names;
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "setup_s is end-to-end" true (List.mem_assoc "setup_s" Pb_metrics.end_to_end);
  List.iter
    (fun bad -> Alcotest.(check bool) (bad ^ " rejected") false (Pb_stats.valid_metric_name bad))
    [ ""; "a b"; "job/s"; ".hidden"; "x%"; String.make 65 'a' ]

(* BENCHMARK.json lists the same metrics, units and workloads as the
   code that reports them, within the limits its reader enforces. *)
let benchmark_json () =
  let j =
    match Qjson.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let entries k =
    Option.value (Option.bind (Qjson.member k j) Qjson.to_list) ~default:[]
  in
  let get k e = Option.value (Option.bind (Qjson.member k e) Qjson.to_str) ~default:"" in
  let names_units k = List.map (fun e -> (get "name" e, get "unit" e)) (entries k) in
  Alcotest.(check (list (pair string string))) "end_to_end" Pb_metrics.end_to_end
    (names_units "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Pb_metrics.per_layer
    (names_units "per_layer");
  List.iter
    (fun e -> Alcotest.(check bool) (get "name" e ^ " is a workload") true (List.mem (get "name" e) Pb_gen.workloads))
    (entries "workloads");
  List.iter
    (fun e ->
      let bound = Option.bind (Qjson.member "bound" e) Qjson.to_float in
      Alcotest.(check bool) (get "name" e ^ " bound in (0, 0.25]") true
        (match bound with Some b -> b > 0.0 && b <= 0.25 | None -> false))
    (entries "end_to_end");
  List.iter
    (fun e -> Alcotest.(check bool) (get "name" e ^ " why fits") true (String.length (get "why" e) <= 200))
    (entries "workloads")

let percentile_rule () =
  let check n expect =
    Alcotest.(check bool) (Printf.sprintf "p90 of %d samples" n) expect
      (Pb_stats.percentile_reportable ~n 0.9)
  in
  check 0 false;
  check 9 false;
  check 99 false;
  check 100 true;
  check 250 true;
  Alcotest.(check int) "100 samples: 10 beyond the p90" 10 (Pb_stats.samples_beyond ~n:100 0.9);
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "nearest-rank p90" 90.0 (Pb_stats.percentile xs 0.9);
  Alcotest.(check (float 0.0)) "median of an even count" 50.5 (Pb_stats.median xs);
  Alcotest.(check (float 0.0)) "median of an odd count" 2.0 (Pb_stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "minimum" 1.0 (Pb_stats.minimum [ 3.0; 1.0; 2.0 ])

let fail_pct () =
  Alcotest.(check (float 1e-12)) "3 of 200" 1.5 (Pb_stats.fail_pct ~attempted:200 ~failed:3);
  Alcotest.(check (float 0.0)) "clean" 0.0 (Pb_stats.fail_pct ~attempted:10 ~failed:0);
  Alcotest.(check (float 0.0)) "nothing attempted counts as failed" 100.0
    (Pb_stats.fail_pct ~attempted:0 ~failed:0)

let reconciliation () =
  let layers = [ 0.25; 0.25; 0.5 ] in
  Alcotest.(check bool) "exact" true (Pb_stats.reconciles ~layers ~total:1.0);
  Alcotest.(check bool) "4.9% under" true (Pb_stats.reconciles ~layers ~total:1.049);
  Alcotest.(check bool) "5.1% over" false (Pb_stats.reconciles ~layers ~total:0.949);
  Alcotest.(check bool) "10% under" false (Pb_stats.reconciles ~layers ~total:1.1);
  Alcotest.(check (float 1e-9)) "gap" 20.0 (Pb_stats.reconcile_gap_pct ~layers ~total:1.25)

let () =
  Alcotest.run "perfbench"
    [ ( "generator",
        [ Alcotest.test_case "deterministic in the seed" `Quick generator_deterministic;
          Alcotest.test_case "default seed reproduces the suite" `Slow default_seed_is_suite ] );
      ( "rules",
        [ Alcotest.test_case "metric names" `Quick metric_names;
          Alcotest.test_case "BENCHMARK.json matches" `Quick benchmark_json;
          Alcotest.test_case "percentile reporting" `Quick percentile_rule;
          Alcotest.test_case "fail_pct" `Quick fail_pct;
          Alcotest.test_case "5% reconciliation" `Quick reconciliation ] ) ]
