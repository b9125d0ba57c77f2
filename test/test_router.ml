(* Tests for the edge-deletion router: invariants after initial routing,
   density-chart consistency, differential mirroring, improvement
   phases, determinism. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mini_input () = (Suite.mini ()).Suite.input

let build_router ?(timing = true) ?(options = Router.default_options) input =
  let fp0 = Flow.floorplan_of_input input in
  let dg = Delay_graph.build input.Flow.netlist in
  let order =
    if timing then Sta.static_net_order dg input.Flow.constraints
    else List.init (Netlist.n_nets input.Flow.netlist) Fun.id
  in
  let fp, assignment, _ = Feed_insert.assign_with_insertion fp0 ~order in
  let sta = if timing then Some (Sta.create dg input.Flow.constraints) else None in
  (Router.create ~options fp assignment sta, fp)

let test_initial_route_invariants () =
  let input = mini_input () in
  let router, fp = build_router input in
  check_bool "not routed before" false (Router.is_routed router);
  Router.initial_route router;
  check_bool "routed after" true (Router.is_routed router);
  let netlist = input.Flow.netlist in
  for net = 0 to Netlist.n_nets netlist - 1 do
    let rg = Router.routing_graph router net in
    let g = rg.Routing_graph.graph in
    (* Every net's live graph is a tree over its terminals... *)
    check_bool
      (Printf.sprintf "net %d terminals connected" net)
      true
      (Ugraph.connected_within g rg.Routing_graph.terminals);
    check_int
      (Printf.sprintf "net %d: no deletable edge left" net)
      0
      (List.length (Bridges.non_bridge_ids g));
    (* ... with no dangling non-terminal leaf. *)
    for v = 0 to Ugraph.n_vertices g - 1 do
      let is_terminal =
        match rg.Routing_graph.vkind.(v) with
        | Routing_graph.Terminal _ -> true
        | Routing_graph.Position _ -> false
      in
      if (not is_terminal) && Ugraph.degree g v > 0 then
        check_bool (Printf.sprintf "net %d vertex %d not dangling" net v) true
          (Ugraph.degree g v >= 2)
    done;
    (* The tentative tree equals the whole live graph now. *)
    check_int
      (Printf.sprintf "net %d tree covers the graph" net)
      (Ugraph.n_edges_live g)
      (List.length (Router.tree_edges router net))
  done;
  ignore fp

let test_density_consistency () =
  let input = mini_input () in
  let router, fp = build_router input in
  Router.initial_route router;
  let recounted = Util.recount_density router fp in
  check_bool "incremental density equals recount after initial routing" true
    (Util.densities_equal (Router.density router) recounted
       ~n_channels:(Floorplan.n_channels fp) ~width:(Floorplan.width fp));
  (* And still after the improvement phases. *)
  ignore (Router.recover_violations router);
  ignore (Router.improve_delay router);
  ignore (Router.improve_area router);
  let recounted = Util.recount_density router fp in
  check_bool "density consistent after improvements" true
    (Util.densities_equal (Router.density router) recounted
       ~n_channels:(Floorplan.n_channels fp) ~width:(Floorplan.width fp))

let test_caps_match_trees () =
  let input = mini_input () in
  let router, _ = build_router input in
  ignore (Router.run router);
  let caps = Router.wire_caps router in
  let netlist = input.Flow.netlist in
  for net = 0 to Netlist.n_nets netlist - 1 do
    let rg = Router.routing_graph router net in
    let expected = Routing_graph.tree_capacitance rg ~edge_ids:(Router.tree_edges router net) in
    Alcotest.(check (float 1e-6)) (Printf.sprintf "net %d cap" net) expected caps.(net)
  done

let test_determinism () =
  let measure () =
    let outcome = Flow.run (mini_input ()) in
    let m = outcome.Flow.o_measurement in
    (m.Flow.m_delay_ps, m.Flow.m_length_mm, m.Flow.m_deletions, m.Flow.m_area_mm2)
  in
  let a = measure () and b = measure () in
  check_bool "bit-identical reruns" true (a = b)

let test_differential_mirroring () =
  let input = mini_input () in
  let router, _ = build_router input in
  check_int "pair recognized before routing" 1 (Router.n_recognized_pairs router);
  ignore (Router.run router);
  (* Find the pair and compare tree shapes. *)
  let netlist = input.Flow.netlist in
  let pair = ref None in
  for net = 0 to Netlist.n_nets netlist - 1 do
    match (Netlist.net netlist net).Netlist.diff_partner with
    | Some p when p > net -> pair := Some (net, p)
    | Some _ | None -> ()
  done;
  match !pair with
  | None -> Alcotest.fail "mini suite should contain a pair"
  | Some (a, b) ->
    let shape net =
      let rg = Router.routing_graph router net in
      Router.tree_edges router net
      |> List.filter_map (fun eid ->
             match Routing_graph.edge_kind rg eid with
             | Routing_graph.Trunk { channel; span } ->
               Some (`Trunk (channel, Interval.length span))
             | Routing_graph.Branch { row; _ } -> Some (`Branch row)
             | Routing_graph.Correspondence _ -> None)
      |> List.sort compare
    in
    (* If recognition survived the whole flow, shapes coincide; the
       trees differ only by the column offset. *)
    if Router.n_recognized_pairs router = 1 then
      check_bool "mirrored trees have identical shape" true (shape a = shape b)

let test_improvement_reports () =
  let input = mini_input () in
  let router, _ = build_router input in
  Router.initial_route router;
  let r = Router.recover_violations router in
  check_bool "recover passes bounded" true
    (r.Router.passes <= (Router.options router).Router.max_recover_passes);
  let r = Router.improve_delay router in
  check_bool "delay passes bounded" true
    (r.Router.passes <= (Router.options router).Router.max_delay_passes);
  let before = Array.fold_left ( + ) 0 (Density.tracks_estimate (Router.density router)) in
  let r = Router.improve_area router in
  check_bool "area passes bounded" true
    (r.Router.passes <= (Router.options router).Router.max_area_passes);
  let after = Array.fold_left ( + ) 0 (Density.tracks_estimate (Router.density router)) in
  check_bool "area phase never worsens total tracks" true (after <= before)

(* A guard that raises abandons the phase; the criterion ordering that
   was in force before the phase must be back all the same, or the next
   reroute selects (and journals) under the wrong ordering. *)
let test_guard_restores_area_mode () =
  let abandon () = raise Exit in
  let commit_modes router =
    let modes = ref [] in
    Router.set_commit_hook router (Some (fun dc -> modes := dc.Router.dc_area_mode :: !modes));
    Router.reroute_net router 0;
    Router.set_commit_hook router None;
    List.sort_uniq compare !modes
  in
  let check_phase (name, area_first, phase) =
    let options = { Router.default_options with Router.area_first_ordering = area_first } in
    let router, _ = build_router ~options (mini_input ()) in
    Router.initial_route router;
    (match phase router with
    | (_ : Router.phase_report) -> Alcotest.fail (name ^ ": the guard must abandon the phase")
    | exception Exit -> ());
    Alcotest.(check (list bool)) (name ^ ": ordering restored") [ area_first ] (commit_modes router)
  in
  List.iter check_phase
    [ ("improve_area", false, fun r -> Router.improve_area ~guard:abandon r);
      ("improve_delay", true, fun r -> Router.improve_delay ~guard:abandon r);
      ("recover_violations", true, fun r -> Router.recover_violations ~guard:abandon r) ]

let test_reroute_net_preserves_invariants () =
  let input = mini_input () in
  let router, fp = build_router input in
  Router.initial_route router;
  (* Reroute a handful of nets explicitly. *)
  for net = 0 to min 9 (Netlist.n_nets input.Flow.netlist - 1) do
    Router.reroute_net router net
  done;
  check_bool "still routed" true (Router.is_routed router);
  let recounted = Util.recount_density router fp in
  check_bool "density still consistent" true
    (Util.densities_equal (Router.density router) recounted
       ~n_channels:(Floorplan.n_channels fp) ~width:(Floorplan.width fp))

let test_unconstrained_mode () =
  let input = mini_input () in
  let router, _ = build_router ~timing:false input in
  check_bool "no sta attached" true (Router.sta router = None);
  ignore (Router.run router);
  check_bool "area-only routing completes" true (Router.is_routed router)

let test_star_estimator () =
  let input = mini_input () in
  let options = { Router.default_options with Router.cl_estimator = Router.Star_bbox } in
  let router, fp = build_router ~options input in
  Router.initial_route router;
  check_bool "routed with star estimator" true (Router.is_routed router);
  (* Star caps equal the HPWL estimate, independent of the tree. *)
  let caps = Router.wire_caps router in
  for net = 0 to Netlist.n_nets input.Flow.netlist - 1 do
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "net %d star cap" net)
      (Lower_bound.hpwl_cap fp net) caps.(net)
  done

let test_channel_nets_cover_trees () =
  let input = mini_input () in
  let router, fp = build_router input in
  ignore (Router.run router);
  (* Every tree trunk must appear in its channel's segment list. *)
  let all = Router.channel_nets router in
  check_int "one list per channel" (Floorplan.n_channels fp) (Array.length all);
  for channel = 0 to Floorplan.n_channels fp - 1 do
    let segs = all.(channel) in
    let by_net = Hashtbl.create 16 in
    List.iter (fun (cn : Router.chan_net) -> Hashtbl.replace by_net cn.Router.cn_net cn) segs;
    for net = 0 to Netlist.n_nets input.Flow.netlist - 1 do
      let rg = Router.routing_graph router net in
      List.iter
        (fun eid ->
          match Routing_graph.edge_kind rg eid with
          | Routing_graph.Trunk { channel = c; span } when c = channel ->
            (match Hashtbl.find_opt by_net net with
            | None -> Alcotest.failf "net %d trunk missing from channel %d" net channel
            | Some cn ->
              check_bool "span within segment bounds" true
                (cn.Router.cn_lo <= Interval.lo span && Interval.hi span <= cn.Router.cn_hi))
          | Routing_graph.Trunk _ | Routing_graph.Branch _ | Routing_graph.Correspondence _ -> ())
        (Router.tree_edges router net)
    done
  done

let test_sequential_baseline () =
  let input = mini_input () in
  let router, fp = build_router input in
  Router.route_sequential router;
  check_bool "sequential run routes everything" true (Router.is_routed router);
  (* Same structural invariants as the concurrent scheme. *)
  let netlist = input.Flow.netlist in
  for net = 0 to Netlist.n_nets netlist - 1 do
    let rg = Router.routing_graph router net in
    check_bool
      (Printf.sprintf "net %d terminals connected" net)
      true
      (Ugraph.connected_within rg.Routing_graph.graph rg.Routing_graph.terminals)
  done;
  let recounted = Util.recount_density router fp in
  check_bool "density consistent after sequential routing" true
    (Util.densities_equal (Router.density router) recounted
       ~n_channels:(Floorplan.n_channels fp) ~width:(Floorplan.width fp));
  (* Mirrored pairs survive sequential routing too. *)
  check_int "pair still recognized" 1 (Router.n_recognized_pairs router)

let test_sequential_order_dependence () =
  (* The defining weakness of the baseline: results depend on the net
     ordering (the paper's initial routing is order-independent). *)
  let input = mini_input () in
  let total_tracks order =
    let router, _ = build_router input in
    Router.route_sequential ?order router;
    Array.fold_left ( + ) 0 (Density.tracks_estimate (Router.density router))
  in
  let forward = total_tracks None in
  let n = Netlist.n_nets input.Flow.netlist in
  let backward = total_tracks (Some (List.rev (List.init n Fun.id))) in
  (* Not an equality assertion — just that both route and report. *)
  check_bool "both orders route" true (forward > 0 && backward > 0)

let test_penalty_function () =
  let check_float = Alcotest.(check (float 1e-12)) in
  (* Eq. 4: pen(x,P) = 1 - x/tau for x >= 0, exp(-x/tau) below. *)
  check_float "zero slack" 1.0 (Router.penalty 0.0 100.0);
  check_float "full slack" 0.0 (Router.penalty 100.0 100.0);
  check_float "half slack" 0.5 (Router.penalty 50.0 100.0);
  check_float "violation grows exponentially" (exp 1.0) (Router.penalty (-100.0) 100.0);
  check_float "deep violation clamped, finite" (exp 50.0) (Router.penalty (-1.0e9) 100.0);
  (* Monotone decreasing in x across the boundary. *)
  let xs = [ -200.0; -50.0; -1.0; 0.0; 1.0; 50.0; 200.0 ] in
  let rec mono = function
    | a :: (b :: _ as rest) -> Router.penalty a 100.0 >= Router.penalty b 100.0 && mono rest
    | _ -> true
  in
  check_bool "monotone" true (mono xs)

let test_eco_recovery () =
  (* Tighten a constraint after routing: set_limit flips it into
     violation and the recovery phases must claw it back when the
     tightened budget is demonstrably achievable. *)
  let input = mini_input () in
  let router, _ = build_router input in
  ignore (Router.run router);
  match Router.sta router with
  | None -> Alcotest.fail "expected sta"
  | Some sta ->
    let ci, margin = Option.get (Sta.worst sta) in
    check_bool "initially met" true (margin > 0.0);
    (* Consume half the worst margin: achievable by construction. *)
    let old_limit = (Sta.constraint_ sta ci).Path_constraint.limit_ps in
    Sta.set_limit sta ci (old_limit -. (margin /. 2.0));
    check_bool "still met at half margin (routing unchanged)" true (Sta.margin sta ci > 0.0);
    (* Now overshoot past the full margin: a real violation appears... *)
    Sta.set_limit sta ci (old_limit -. (margin *. 1.5));
    check_bool "violated" true (Sta.margin sta ci < 0.0);
    (* ... recovery runs and is bounded; it may or may not succeed, but
       must never leave the state worse or inconsistent. *)
    let before = Sta.margin sta ci in
    ignore (Router.recover_violations router);
    ignore (Router.improve_delay router);
    check_bool "margin not degraded" true (Sta.margin sta ci >= before -. 1e-6);
    check_bool "still fully routed" true (Router.is_routed router);
    check_bool "verifier still signs off" true (Verify.ok (Verify.routed router))

(* The per-channel walk that [Router.channel_nets] replaced, kept as
   its reference: every net's tree is scanned once for each channel. *)
let ref_channel_nets router ~channel =
  let fp = Router.floorplan router in
  let netlist = Floorplan.netlist fp in
  let out = ref [] in
  for n = 0 to Netlist.n_nets netlist - 1 do
    let rg = Router.routing_graph router n in
    let lo = ref max_int and hi = ref min_int in
    let pins = ref [] in
    let touch x =
      if x < !lo then lo := x;
      if x > !hi then hi := x
    in
    let add_pin x from_top =
      touch x;
      pins := { Router.cp_x = x; cp_from_top = from_top } :: !pins
    in
    let on_edge eid =
      match Routing_graph.edge_kind rg eid with
      | Routing_graph.Trunk { channel = c; span } when c = channel ->
        touch (Interval.lo span);
        touch (Interval.hi span)
      | Routing_graph.Branch { row; x } ->
        if row = channel then add_pin x true else if row + 1 = channel then add_pin x false
      | Routing_graph.Correspondence p when p.Routing_graph.channel = channel -> begin
        let e = Ugraph.edge rg.Routing_graph.graph eid in
        let term_vertex =
          match rg.Routing_graph.vkind.(e.Ugraph.u) with
          | Routing_graph.Terminal _ -> e.Ugraph.u
          | Routing_graph.Position _ -> e.Ugraph.v
        in
        match rg.Routing_graph.vkind.(term_vertex) with
        | Routing_graph.Terminal (Netlist.Pin pin) ->
          add_pin p.Routing_graph.x (Floorplan.terminal_row fp pin = channel)
        | Routing_graph.Terminal (Netlist.Port q) ->
          add_pin p.Routing_graph.x ((Netlist.port netlist q).Netlist.side = Netlist.North)
        | Routing_graph.Position _ -> assert false
      end
      | Routing_graph.Trunk _ | Routing_graph.Correspondence _ -> ()
    in
    List.iter on_edge (Router.tree_edges router n);
    if !pins <> [] || !lo <= !hi then
      out :=
        { Router.cn_net = n;
          cn_lo = !lo;
          cn_hi = !hi;
          cn_pins = List.rev !pins;
          cn_pitch = rg.Routing_graph.pitch }
        :: !out
  done;
  List.rev !out

let test_channel_nets_match_reference () =
  let check_case name input ~timing =
    let router, fp = build_router ~timing input in
    ignore (Router.run router);
    let all = Router.channel_nets router in
    for channel = 0 to Floorplan.n_channels fp - 1 do
      check_bool
        (Printf.sprintf "%s channel %d equals the per-channel walk" name channel)
        true
        (all.(channel) = ref_channel_nets router ~channel)
    done
  in
  check_case "MINI" (mini_input ()) ~timing:true;
  check_case "MINI -u" (mini_input ()) ~timing:false;
  let c1 = (Suite.make_case ~circuit:"C1" ~placement:Placement.P2).Suite.input in
  check_case "C1P2" c1 ~timing:true

let suite =
  [ Alcotest.test_case "initial routing invariants" `Quick test_initial_route_invariants;
    Alcotest.test_case "ECO recovery" `Quick test_eco_recovery;
    Alcotest.test_case "Eq.4 penalty function" `Quick test_penalty_function;
    Alcotest.test_case "sequential baseline invariants" `Quick test_sequential_baseline;
    Alcotest.test_case "sequential order dependence" `Quick test_sequential_order_dependence;
    Alcotest.test_case "density chart consistency" `Quick test_density_consistency;
    Alcotest.test_case "caps match final trees" `Quick test_caps_match_trees;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "differential mirroring" `Quick test_differential_mirroring;
    Alcotest.test_case "improvement phase bounds" `Quick test_improvement_reports;
    Alcotest.test_case "abandoned phase restores ordering" `Quick test_guard_restores_area_mode;
    Alcotest.test_case "reroute_net invariants" `Quick test_reroute_net_preserves_invariants;
    Alcotest.test_case "unconstrained mode" `Quick test_unconstrained_mode;
    Alcotest.test_case "star estimator" `Quick test_star_estimator;
    Alcotest.test_case "channel segments cover trees" `Quick test_channel_nets_cover_trees;
    Alcotest.test_case "one-pass channel segments match the per-channel walk" `Quick
      test_channel_nets_match_reference ]

let () = Alcotest.run "router" [ ("router", suite) ]
