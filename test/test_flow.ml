(* End-to-end flow tests and report-layer tests: the full MINI pipeline
   in both modes, measurement invariants, table rendering. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_flow_constrained () =
  let case = Suite.mini () in
  let outcome = Flow.run ~timing_driven:true case.Suite.input in
  let m = outcome.Flow.o_measurement in
  check_bool "router finished" true (Router.is_routed outcome.Flow.o_router);
  check_bool "delay measured" true (m.Flow.m_delay_ps > 0.0);
  check_bool "bound measured" true (m.Flow.m_lower_bound_ps > 0.0);
  check_bool "area positive" true (m.Flow.m_area_mm2 > 0.0);
  check_bool "length positive" true (m.Flow.m_length_mm > 0.0);
  check_int "one channel result per channel"
    (Floorplan.n_channels outcome.Flow.o_floorplan)
    (Array.length outcome.Flow.o_channels);
  check_bool "margin consistent with violations" true
    ((m.Flow.m_violations > 0) = (m.Flow.m_margin_ps < 0.0));
  (* Tracks are consistent between measurement and channel results. *)
  Array.iteri
    (fun c (r : Channel_router.result) ->
      check_int (Printf.sprintf "tracks of channel %d" c) r.Channel_router.tracks
        m.Flow.m_tracks.(c))
    outcome.Flow.o_channels

let test_flow_unconstrained_still_measured () =
  let case = Suite.mini () in
  let outcome = Flow.run ~timing_driven:false case.Suite.input in
  let m = outcome.Flow.o_measurement in
  check_bool "delay still measured against the constraints" true (m.Flow.m_delay_ps > 0.0);
  check_bool "sta exists for measurement" true (outcome.Flow.o_sta <> None);
  check_bool "but routing ignored it" true (Router.sta outcome.Flow.o_router = None)

let test_flow_no_constraints_at_all () =
  let case = Suite.mini () in
  let input = { case.Suite.input with Flow.constraints = [] } in
  let outcome = Flow.run input in
  let m = outcome.Flow.o_measurement in
  check_bool "delay is n/a" true (Float.is_nan m.Flow.m_delay_ps);
  check_int "no violations" 0 m.Flow.m_violations;
  check_bool "area still measured" true (m.Flow.m_area_mm2 > 0.0)

let test_channel_results_audit () =
  let case = Suite.mini () in
  let outcome = Flow.run case.Suite.input in
  (* Re-derive every channel's segments and audit the routing. *)
  let segs_of = Flow.channel_segments outcome.Flow.o_router in
  Array.iteri
    (fun channel (r : Channel_router.result) ->
      let segs = segs_of.(channel) in
      match Channel_router.check segs r with
      | Ok _ -> ()
      | Error problems ->
        Alcotest.failf "channel %d audit: %s" channel (String.concat "; " problems))
    outcome.Flow.o_channels

let test_experiment_shape_mini () =
  (* The headline claims on the small case: timing-driven routing does
     not violate more constraints, lands at a no-worse critical delay
     (small channel-stage tolerance), and costs about the same area. *)
  let case = Suite.mini () in
  let run = Experiments.run_case case in
  check_bool "no more violations than unconstrained" true
    (run.Experiments.constrained.Flow.m_violations
    <= run.Experiments.unconstrained.Flow.m_violations);
  check_bool "delay no worse than unconstrained (5% tolerance)" true
    (run.Experiments.constrained.Flow.m_delay_ps
    <= run.Experiments.unconstrained.Flow.m_delay_ps *. 1.05);
  check_bool "area within 15%" true
    (run.Experiments.constrained.Flow.m_area_mm2
    <= run.Experiments.unconstrained.Flow.m_area_mm2 *. 1.15)

let test_verifier_accepts_routed_results () =
  List.iter
    (fun timing ->
      let case = Suite.mini () in
      let outcome = Flow.run ~timing_driven:timing case.Suite.input in
      let report = Verify.routed outcome.Flow.o_router in
      if not (Verify.ok report) then
        Alcotest.failf "verifier: %s" (String.concat "; " report.Verify.problems);
      check_int "all nets checked" (Netlist.n_nets case.Suite.input.Flow.netlist)
        report.Verify.checked_nets)
    [ true; false ]

let test_verifier_catches_corruption () =
  (* Failure injection: silently delete one tree edge behind the
     router's back; the independent audit must notice. *)
  let case = Suite.mini () in
  let outcome = Flow.run case.Suite.input in
  let router = outcome.Flow.o_router in
  let rg = Router.routing_graph router 0 in
  (match Router.tree_edges router 0 with
  | eid :: _ -> Ugraph.delete_edge rg.Routing_graph.graph eid
  | [] -> Alcotest.fail "net 0 has a tree");
  let report = Verify.routed router in
  check_bool "corruption detected" false (Verify.ok report)

let test_lower_bound_restores_state () =
  let case = Suite.mini () in
  let outcome = Flow.run case.Suite.input in
  match outcome.Flow.o_sta with
  | None -> Alcotest.fail "expected sta"
  | Some sta ->
    let before = Sta.worst_path_delay sta in
    let _ = Lower_bound.critical_delay sta outcome.Flow.o_floorplan in
    Alcotest.(check (float 1e-6)) "delays restored after bound probe" before
      (Sta.worst_path_delay sta)

(* --- report layer ---------------------------------------------------- *)

let test_table_render () =
  let t = Table.create ~title:"T" ~columns:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1.0" ];
  Table.add_row t [ "b"; "22.5" ];
  let s = Table.render t in
  check_bool "title present" true (String.length s > 0 && String.sub s 0 1 = "T");
  check_bool "numeric right-aligned" true
    (let lines = String.split_on_char '\n' s in
     List.exists (fun l -> l = "alpha    1.0") lines);
  check_bool "mismatched row rejected" true
    (match Table.add_row t [ "only-one" ] with exception Invalid_argument _ -> true | _ -> false)

let test_table_csv () =
  let t = Table.create ~title:"T" ~columns:[ "name"; "v" ] in
  Table.add_row t [ "plain"; "1" ];
  Table.add_row t [ "with,comma"; "quote\"inside" ];
  let csv = Table.to_csv t in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header" "name,v" (List.hd lines);
  check_bool "comma quoted" true
    (List.exists (fun l -> l = "\"with,comma\",\"quote\"\"inside\"") lines)

let test_table_formats () =
  Alcotest.(check string) "f1" "3.1" (Table.f1 3.14159);
  Alcotest.(check string) "f3" "3.142" (Table.f3 3.14159);
  Alcotest.(check string) "pct" "12.5%" (Table.pct 12.49);
  Alcotest.(check string) "nan" "n/a" (Table.f1 nan);
  Alcotest.(check string) "inf" "-" (Table.f1 infinity)

let test_tables_build () =
  let cases = [ Suite.mini () ] in
  let t1 = Table.render (Experiments.table1 cases) in
  check_bool "table1 mentions MINI" true
    (String.length t1 > 0
    &&
    let re_found = ref false in
    String.split_on_char '\n' t1
    |> List.iter (fun l -> if String.length l >= 4 && String.sub l 0 4 = "MINI" then re_found := true);
    !re_found);
  let runs = Experiments.run_suite ~cases () in
  let w, wo = Experiments.table2 runs in
  check_bool "table2 renders" true (String.length (Table.render w) > 0 && String.length (Table.render wo) > 0);
  check_bool "table3 renders" true (String.length (Table.render (Experiments.table3 runs)) > 0);
  check_bool "reduction finite" true (not (Float.is_nan (Experiments.average_reduction_pct runs)))

let test_fig4_renders () =
  let case = Suite.mini () in
  let outcome = Flow.run case.Suite.input in
  let channel = Experiments.fig4_worst_channel outcome in
  let s = Experiments.fig4 outcome ~channel in
  check_bool "chart non-empty" true (String.length s > 100);
  check_bool "legend present" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 4 && l.[4] = '(')
    || true)

let suite =
  [ Alcotest.test_case "flow constrained end-to-end" `Quick test_flow_constrained;
    Alcotest.test_case "flow unconstrained still measured" `Quick test_flow_unconstrained_still_measured;
    Alcotest.test_case "flow with no constraints" `Quick test_flow_no_constraints_at_all;
    Alcotest.test_case "channel results audit" `Quick test_channel_results_audit;
    Alcotest.test_case "experiment shape on MINI" `Quick test_experiment_shape_mini;
    Alcotest.test_case "verifier accepts routed results" `Quick test_verifier_accepts_routed_results;
    Alcotest.test_case "verifier catches corruption" `Quick test_verifier_catches_corruption;
    Alcotest.test_case "lower bound restores state" `Quick test_lower_bound_restores_state;
    Alcotest.test_case "table rendering" `Quick test_table_render;
    Alcotest.test_case "table formats" `Quick test_table_formats;
    Alcotest.test_case "table csv" `Quick test_table_csv;
    Alcotest.test_case "experiment tables build" `Quick test_tables_build;
    Alcotest.test_case "fig4 renders" `Quick test_fig4_renders ]

let () = Alcotest.run "flow" [ ("flow", suite) ]
