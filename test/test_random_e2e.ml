(* Randomized end-to-end properties: generate small circuits from
   random seeds, run the whole flow, and audit every invariant the
   pipeline promises.  This is the failure-injection net under the
   deterministic suite. *)

let params_of seed ~n_comb ~n_ff ~n_levels ~n_diff_pairs =
  { Circuit_gen.default_params with
    Circuit_gen.seed;
    n_comb;
    n_ff;
    n_inputs = 4;
    n_outputs = 4;
    n_levels;
    n_diff_pairs;
    n_constraints = 3 }

let gen_params =
  QCheck.Gen.(
    let* seed = int_range 1 100000 in
    let* n_comb = int_range 15 60 in
    let* n_ff = int_range 3 10 in
    let* n_levels = int_range 2 5 in
    let* n_diff_pairs = int_range 0 3 in
    return (params_of (Int64.of_int seed) ~n_comb ~n_ff ~n_levels ~n_diff_pairs))

let arb_params =
  QCheck.make
    ~print:(fun p -> Printf.sprintf "seed=%Ld comb=%d ff=%d" p.Circuit_gen.seed p.Circuit_gen.n_comb p.Circuit_gen.n_ff)
    gen_params

let flow_input p =
  let netlist, constraints = Circuit_gen.generate p in
  let placed = Placement.place ~netlist ~n_rows:3 Placement.P1 in
  Placement.to_flow_input ~netlist ~dims:Dims.default ~constraints placed

let audit_outcome input (outcome : Flow.outcome) =
  let router = outcome.Flow.o_router in
  let fp = outcome.Flow.o_floorplan in
  let netlist = input.Flow.netlist in
  (* 0. the independent verifier signs off *)
  Verify.ok (Verify.routed router)
  (* 1. fully routed, every net a connected tree *)
  && Router.is_routed router
  && (let ok = ref true in
      for net = 0 to Netlist.n_nets netlist - 1 do
        let rg = Router.routing_graph router net in
        if not (Ugraph.connected_within rg.Routing_graph.graph rg.Routing_graph.terminals) then
          ok := false;
        if Bridges.non_bridge_ids rg.Routing_graph.graph <> [] then ok := false
      done;
      !ok)
  (* 2. incremental densities match a recount *)
  && Util.densities_equal (Router.density router)
       (Util.recount_density router fp)
       ~n_channels:(Floorplan.n_channels fp) ~width:(Floorplan.width fp)
  (* 3. every channel's detailed routing audits clean *)
  && Array.for_all2
       (fun segs (r : Channel_router.result) ->
         match Channel_router.check segs r with Ok _ -> true | Error _ -> false)
       (Flow.channel_segments router) outcome.Flow.o_channels
  (* 4. sane measurement *)
  && outcome.Flow.o_measurement.Flow.m_area_mm2 > 0.0
  && outcome.Flow.o_measurement.Flow.m_length_mm > 0.0

let prop_random_flow =
  QCheck.Test.make ~name:"e2e: random circuits route with all invariants" ~count:10 arb_params
    (fun p ->
      let input = flow_input p in
      audit_outcome input (Flow.run input))

let prop_random_flow_unconstrained =
  QCheck.Test.make ~name:"e2e: random circuits route area-only too" ~count:6 arb_params
    (fun p ->
      let input = flow_input p in
      audit_outcome input (Flow.run ~timing_driven:false input))

let prop_random_sequential =
  QCheck.Test.make ~name:"e2e: random circuits route sequentially" ~count:6 arb_params
    (fun p ->
      let input = flow_input p in
      audit_outcome input (Flow.run ~algorithm:Flow.Sequential_net_at_a_time input))

let prop_random_io_roundtrip =
  QCheck.Test.make ~name:"e2e: random designs survive the bundle format" ~count:6 arb_params
    (fun p ->
      let input = flow_input p in
      let fp = Flow.floorplan_of_input input in
      let text = Design_io.to_string ~floorplan:fp ~constraints:input.Flow.constraints input.Flow.netlist in
      let bundle = Design_io.of_string text in
      let input' = Design_io.to_flow_input bundle in
      let a = (Flow.run input).Flow.o_measurement in
      let b = (Flow.run input').Flow.o_measurement in
      a.Flow.m_delay_ps = b.Flow.m_delay_ps && a.Flow.m_area_mm2 = b.Flow.m_area_mm2)

let suite =
  [ QCheck_alcotest.to_alcotest prop_random_flow;
    QCheck_alcotest.to_alcotest prop_random_flow_unconstrained;
    QCheck_alcotest.to_alcotest prop_random_sequential;
    QCheck_alcotest.to_alcotest prop_random_io_roundtrip ]

let () = Alcotest.run "random-e2e" [ ("random-e2e", suite) ]
