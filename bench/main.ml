(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section on the synthetic suite, then times the router's
   core kernels with Bechamel.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- tables  -- only the paper tables
     dune exec bench/main.exe -- micro   -- only the microbenchmarks *)

let section title =
  Printf.printf "\n==== %s ====\n\n%!" title

(* Wall-clock (not Sys.time): with several domains routing, CPU time
   across all of them exceeds the elapsed time we are comparing. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let same_suite_results a b =
  List.for_all2
    (fun (x : Experiments.run) (y : Experiments.run) ->
      let same (m : Flow.measurement) (n : Flow.measurement) =
        m.Flow.m_delay_ps = n.Flow.m_delay_ps
        && m.Flow.m_area_mm2 = n.Flow.m_area_mm2
        && m.Flow.m_length_mm = n.Flow.m_length_mm
        && m.Flow.m_violations = n.Flow.m_violations
        && m.Flow.m_deletions = n.Flow.m_deletions
      in
      same x.Experiments.constrained y.Experiments.constrained
      && same x.Experiments.unconstrained y.Experiments.unconstrained)
    a b

let paper_tables () =
  section "Table 1 (paper: test bipolar circuits)";
  let cases = Suite.all () in
  Table.print (Experiments.table1 cases);
  Printf.printf "(paper's exact cell/net counts are unreadable in the transcription;\n";
  Printf.printf " sizes are 1994-plausible synthetic stand-ins, see DESIGN.md)\n";
  section "Table 2 (paper: experimental results)";
  let runs_seq, seq_s = timed (fun () -> Experiments.run_suite ~cases ~domains:1 ()) in
  let domains = Par.default_domains () in
  let runs, par_s = timed (fun () -> Experiments.run_suite ~cases ~domains ()) in
  let w, wo = Experiments.table2 runs in
  Table.print w;
  Table.print wo;
  Printf.printf
    "paper shape: constrained delay < unconstrained on most rows (0.56%%..23.5%%\n\
     improvements), area almost unchanged, constrained CPU a few x higher.\n";
  section "Table 3 (paper: difference from the lower bound)";
  Table.print (Experiments.table3 runs);
  Printf.printf
    "paper shape: constrained within ~10%% of the bound, unconstrained much\n\
     further; average reduction 17.6%% of the lower bound.\n";
  section "Suite wall-clock: sequential vs parallel";
  Printf.printf "full suite,  1 domain : %6.2f s wall\n" seq_s;
  Printf.printf "full suite, %2d domains: %6.2f s wall  (speedup %.2fx)\n" domains par_s
    (if par_s > 0.0 then seq_s /. par_s else nan);
  Printf.printf "determinism: parallel results are %s the sequential results\n"
    (if same_suite_results runs_seq runs then "identical to" else "DIFFERENT FROM (BUG!)");
  runs

let fig4 () =
  section "Fig. 4 (density chart of the most congested channel, C1P1)";
  let case = Suite.make_case ~circuit:"C1" ~placement:Placement.P1 in
  let input = case.Suite.input in
  let fp0 = Flow.floorplan_of_input input in
  let dg = Delay_graph.build input.Flow.netlist in
  let order = Sta.static_net_order dg input.Flow.constraints in
  let fp, assignment, _ = Feed_insert.assign_with_insertion fp0 ~order in
  let sta = Sta.create dg input.Flow.constraints in
  let router = Router.create fp assignment (Some sta) in
  let dens = Router.density router in
  let channel =
    let best = ref 0 and best_v = ref (-1) in
    for c = 0 to Density.n_channels dens - 1 do
      if Density.cM dens ~channel:c > !best_v then begin
        best_v := Density.cM dens ~channel:c;
        best := c
      end
    done;
    !best
  in
  Printf.printf "Before edge deletion (redundant candidate graphs):\n";
  print_string (Experiments.fig4_of_density dens ~channel);
  ignore (Router.run router);
  Printf.printf "\nAfter routing (every remaining trunk is a bridge, d_M = d_m):\n";
  print_string (Experiments.fig4_of_density dens ~channel)

let ablations () =
  section "Ablations A1 (ordering), A3 (CL estimator), A4 (delay model), A5 (scheme), A6 (channel router), A7 (clock width), A8 (track bias) on C1P1";
  let case = Suite.make_case ~circuit:"C1" ~placement:Placement.P1 in
  Table.print (Experiments.ablation_a1 case);
  Table.print (Experiments.ablation_a3 case);
  Table.print (Experiments.ablation_a4 case);
  Table.print (Experiments.ablation_a5 case);
  Table.print (Experiments.ablation_a6 case);
  Table.print (Experiments.ablation_a7 ());
  Table.print (Experiments.ablation_a8 case);
  let outcome = Flow.run case.Suite.input in
  Printf.printf
    "Elmore vs lumped wire delay on the final trees: worst per-net ratio %.3f\n     (close to 1: bipolar wires are wide, so \"the wire resistance is rather\n     small\" and the paper's capacitance-only model is adequate).\n"
    (Experiments.rc_vs_lumped_worst outcome)

let scaling () =
  section "Scaling: circuit size vs CPU and quality (constrained flow)";
  let t =
    Table.create ~title:"Scaling study (fresh circuits, P1 placement)"
      ~columns:[ "comb gates"; "nets"; "delay (ps)"; "gap over bound"; "CPU (s)" ]
  in
  List.iter
    (fun n_comb ->
      let params =
        { Circuit_gen.default_params with
          Circuit_gen.seed = Int64.of_int (1000 + n_comb);
          n_comb;
          n_ff = max 8 (n_comb / 8);
          n_levels = 5;
          n_constraints = 6 }
      in
      let netlist, raw = Circuit_gen.generate params in
      let rows = max 4 (int_of_float (sqrt (float_of_int n_comb) /. 2.0)) in
      let placed = Placement.place ~netlist ~n_rows:rows Placement.P1 in
      let input = Placement.to_flow_input ~netlist ~dims:Dims.default ~constraints:raw placed in
      let constraints = Calibrate.against_reference_route ~input ~headroom:0.18 in
      let input = { input with Flow.constraints } in
      let outcome = Flow.run input in
      let m = outcome.Flow.o_measurement in
      Table.add_row t
        [ Table.fint n_comb;
          Table.fint (Netlist.n_nets netlist);
          Table.f1 m.Flow.m_delay_ps;
          Table.pct (Lower_bound.gap_percent ~delay_ps:m.Flow.m_delay_ps ~bound_ps:m.Flow.m_lower_bound_ps);
          Table.f2 m.Flow.m_cpu_s ])
    [ 100; 200; 400; 800 ];
  Table.print t

(* --- Bechamel microbenchmarks --------------------------------------- *)

let micro_tests () =
  let case = Suite.make_case ~circuit:"C1" ~placement:Placement.P1 in
  let input = case.Suite.input in
  let fp0 = Flow.floorplan_of_input input in
  let dg = Delay_graph.build input.Flow.netlist in
  let order = Sta.static_net_order dg input.Flow.constraints in
  let fp, assignment, _ = Feed_insert.assign_with_insertion fp0 ~order in
  let sample_net =
    (* a multi-row net with a routing graph worth measuring *)
    let rec find net =
      if net >= Netlist.n_nets input.Flow.netlist then 0
      else begin
        let rg = Routing_graph.build fp assignment ~net in
        if Ugraph.n_edges_live rg.Routing_graph.graph >= 12 then net else find (net + 1)
      end
    in
    find 0
  in
  let rg = Routing_graph.build fp assignment ~net:sample_net in
  let open Bechamel in
  [ (* one Test.make per paper table: how long regenerating each row
       set costs (T2/T3 share the suite runs, so T1's stats pass stands
       in for the cheap table and the flow benches below cover the
       expensive ones) *)
    Test.make ~name:"table1.stats"
      (Staged.stage (fun () -> Experiments.table1 [ case ]));
    Test.make ~name:"routing_graph.build"
      (Staged.stage (fun () -> Routing_graph.build fp assignment ~net:sample_net));
    Test.make ~name:"bridges"
      (Staged.stage (fun () -> Bridges.bridges rg.Routing_graph.graph));
    Test.make ~name:"tentative_tree" (Staged.stage (fun () -> Routing_graph.tentative_tree rg));
    Test.make ~name:"delay_graph.build"
      (Staged.stage (fun () -> Delay_graph.build input.Flow.netlist));
    Test.make ~name:"sta.refresh"
      (let sta = Sta.create dg input.Flow.constraints in
       Staged.stage (fun () -> Sta.refresh sta));
    Test.make ~name:"feedthrough.assign"
      (Staged.stage (fun () -> Feedthrough.assign fp0 ~order));
    Test.make ~name:"initial_route(C1P1)"
      (Staged.stage (fun () ->
           let sta = Sta.create dg input.Flow.constraints in
           let router = Router.create fp assignment (Some sta) in
           Router.initial_route router));
    Test.make ~name:"channel_route(worst)"
      (let sta = Sta.create dg input.Flow.constraints in
       let router = Router.create fp assignment (Some sta) in
       ignore (Router.run router);
       let channel =
         let dens = Router.density router in
         let best = ref 0 and best_v = ref (-1) in
         for c = 0 to Density.n_channels dens - 1 do
           if Density.cM dens ~channel:c > !best_v then begin
             best_v := Density.cM dens ~channel:c;
             best := c
           end
         done;
         !best
       in
       let segs = (Flow.channel_segments router).(channel) in
       Staged.stage (fun () -> Channel_router.route segs)) ]

let micro () =
  section "Bechamel microbenchmarks (ns/run, OLS on monotonic clock)";
  let open Bechamel in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let grouped = Test.make_grouped ~name:"bgr" ~fmt:"%s/%s" (micro_tests ()) in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] |> List.sort compare in
  List.iter
    (fun name ->
      let ols_result = Hashtbl.find results name in
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "%-28s %12.0f ns/run\n" name est
      | Some _ | None -> Printf.printf "%-28s (no estimate)\n" name)
    names

(* Where to persist the metrics payload: --bench-out PATH (or
   --bench-out=PATH) anywhere on the command line, else the
   BGR_BENCH_OUT environment variable, else nowhere. *)
let bench_out_path () =
  let from_argv = ref None in
  Array.iteri
    (fun i a ->
      if a = "--bench-out" && i + 1 < Array.length Sys.argv then
        from_argv := Some Sys.argv.(i + 1)
      else if String.length a > 12 && String.sub a 0 12 = "--bench-out=" then
        from_argv := Some (String.sub a 12 (String.length a - 12)))
    Sys.argv;
  match !from_argv with Some p -> Some p | None -> Sys.getenv_opt "BGR_BENCH_OUT"

(* Per-suite observability: phase timings of the runs above, plus the
   whole registry on one machine-greppable line so BENCH_*.json
   trajectories can carry phase-level timing alongside wall-clock. *)
let obs_summary () =
  section "Phase-level metrics (orchestrator-side spans of the runs above)";
  Table.print (Obs_report.phase_durations ());
  let payload = Obs.Metrics.render_json () in
  Printf.printf "BENCH_METRICS_JSON %s\n" payload;
  match bench_out_path () with
  | None -> ()
  | Some path -> (
    match
      let oc = open_out path in
      output_string oc payload;
      output_char oc '\n';
      close_out oc
    with
    | () -> Printf.printf "wrote metrics payload to %s\n" path
    | exception Sys_error msg ->
      Printf.eprintf "warning: cannot write bench metrics to %s: %s\n%!" path msg)

let () =
  let what =
    (* the first operand selects the suite; --flags are not a suite name *)
    if Array.length Sys.argv > 1 && not (String.length Sys.argv.(1) >= 2 && String.sub Sys.argv.(1) 0 2 = "--")
    then Sys.argv.(1)
    else "all"
  in
  Obs.enable ();
  let t0 = Sys.time () in
  if what = "all" || what = "tables" then begin
    ignore (paper_tables ());
    fig4 ();
    ablations ()
  end;
  if what = "all" || what = "scaling" then scaling ();
  if what = "all" || what = "micro" then micro ();
  obs_summary ();
  Printf.printf "\ntotal bench CPU: %.1f s\n" (Sys.time () -. t0)
