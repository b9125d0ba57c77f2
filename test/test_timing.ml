(* Tests for bgr_timing: Delay_graph (Eq. 1), Path_constraint, Sta. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

let pin = Util.pin

(* IN -> INV1(i) -> OR3(o, all three inputs) -> OUT, as in Fig. 1's
   style: one net with fanout 3 whose stage delay we can compute by
   hand. *)
let fanout_circuit () =
  let b = Netlist.builder ~library:Cell_lib.ecl_default in
  let a = Netlist.add_port b ~name:"A" ~side:Netlist.South () in
  let y = Netlist.add_port b ~name:"Y" ~side:Netlist.North () in
  let inv = Netlist.add_instance b ~name:"i" ~cell:"INV1" in
  let or3 = Netlist.add_instance b ~name:"o" ~cell:"OR3" in
  let n0 = Netlist.add_net b ~name:"n0" ~driver:(Netlist.Port a) ~sinks:[ pin inv "A" ] () in
  let n1 =
    Netlist.add_net b ~name:"n1" ~driver:(pin inv "Z")
      ~sinks:[ pin or3 "A"; pin or3 "B"; pin or3 "C" ]
      ()
  in
  let n2 = Netlist.add_net b ~name:"n2" ~driver:(pin or3 "Z") ~sinks:[ Netlist.Port y ] () in
  (Netlist.freeze b, inv, or3, n0, n1, n2)

let lib_values () =
  let lib = Cell_lib.ecl_default in
  let inv = Cell_lib.find lib "INV1" and or3 = Cell_lib.find lib "OR3" in
  let z = Cell.terminal inv "Z" in
  let fanin t = (Cell.terminal or3 t).Cell.fanin_ff in
  (z.Cell.tf_ps_per_ff, z.Cell.td_ps_per_ff, fanin "A" +. fanin "B" +. fanin "C")

let test_eq1_stage_delay () =
  let netlist, _, or3, _, n1, _ = fanout_circuit () in
  let dg = Delay_graph.build netlist in
  let tf, td, fanin_sum = lib_values () in
  let cl = 37.5 in
  Delay_graph.set_net_cap dg ~net:n1 ~cap_ff:cl;
  check_float "net cap stored" cl (Delay_graph.net_cap dg n1);
  check_float "driver td" td (Delay_graph.driver_td dg n1);
  let dag = Delay_graph.dag dg in
  let arcs = Cell.arcs_to (Netlist.instance netlist or3).Netlist.master ~output:"Z" in
  let expected =
    List.map (fun (a : Cell.arc) -> a.Cell.intrinsic_ps +. (fanin_sum *. tf) +. (cl *. td)) arcs
    |> List.sort Float.compare
  in
  let weights =
    List.map (fun e -> Dag.weight dag e) (Delay_graph.edges_of_net dg n1) |> List.sort Float.compare
  in
  check_int "one edge per arc" (List.length expected) (List.length weights);
  List.iter2 (fun e w -> check_float "Eq. 1 weight" e w) expected weights

let test_set_net_cap_updates_all_edges () =
  let netlist, _, _, _, n1, _ = fanout_circuit () in
  let dg = Delay_graph.build netlist in
  let dag = Delay_graph.dag dg in
  let before = List.map (Dag.weight dag) (Delay_graph.edges_of_net dg n1) in
  Delay_graph.set_net_cap dg ~net:n1 ~cap_ff:100.0;
  let after = List.map (Dag.weight dag) (Delay_graph.edges_of_net dg n1) in
  let td = Delay_graph.driver_td dg n1 in
  List.iter2 (fun b a -> check_float "each edge gained 100*td" (b +. (100.0 *. td)) a) before after;
  (* Setting back to zero restores. *)
  Delay_graph.set_net_cap dg ~net:n1 ~cap_ff:0.0;
  let restored = List.map (Dag.weight dag) (Delay_graph.edges_of_net dg n1) in
  List.iter2 (fun b r -> check_float "restored" b r) before restored

let test_nodes_and_sources () =
  let netlist, inv, _, _, _, _ = fanout_circuit () in
  let dg = Delay_graph.build netlist in
  check_bool "inv output has a vertex" true
    (match Delay_graph.vertex dg (Delay_graph.Out { Netlist.inst = inv; term = "Z" }) with
    | (_ : int) -> true
    | exception Not_found -> false);
  check_int "one natural source (port A)" 1 (List.length (Delay_graph.natural_sources dg));
  check_int "one natural sink (port Y)" 1 (List.length (Delay_graph.natural_sinks dg))

(* Flip-flop boundaries: paths end at D/CK, restart at Q with the
   clock-to-output intrinsic as launch offset. *)
let ff_circuit () =
  let b = Netlist.builder ~library:Cell_lib.ecl_default in
  let a = Netlist.add_port b ~name:"A" ~side:Netlist.South () in
  let ck = Netlist.add_port b ~name:"CK" ~side:Netlist.South () in
  let y = Netlist.add_port b ~name:"Y" ~side:Netlist.North () in
  let ff = Netlist.add_instance b ~name:"f" ~cell:"DFF" in
  let inv = Netlist.add_instance b ~name:"i" ~cell:"INV1" in
  let _ = Netlist.add_net b ~name:"nd" ~driver:(Netlist.Port a) ~sinks:[ pin ff "D" ] () in
  let _ = Netlist.add_net b ~name:"nc" ~driver:(Netlist.Port ck) ~sinks:[ pin ff "CK" ] () in
  let _ = Netlist.add_net b ~name:"nq" ~driver:(pin ff "Q") ~sinks:[ pin inv "A" ] () in
  let _ = Netlist.add_net b ~name:"ny" ~driver:(pin inv "Z") ~sinks:[ Netlist.Port y ] () in
  (Netlist.freeze b, ff, inv)

let test_ff_boundary () =
  let netlist, ff, _ = ff_circuit () in
  let dg = Delay_graph.build netlist in
  let q = Delay_graph.vertex dg (Delay_graph.Out { Netlist.inst = ff; term = "Q" }) in
  let d = Delay_graph.vertex dg (Delay_graph.Seq_in { Netlist.inst = ff; term = "D" }) in
  let dag = Delay_graph.dag dg in
  (* No edge from D to Q: the flip-flop cuts combinational paths. *)
  let reachable = Dag.reachable_from dag [ d ] in
  check_bool "D does not reach Q" false reachable.(q);
  (* Q is a natural source with the CK->Q intrinsic as launch offset. *)
  check_bool "Q is a source" true (List.mem q (Delay_graph.natural_sources dg));
  let dff = Cell_lib.find Cell_lib.ecl_default "DFF" in
  let t0 =
    match Cell.arcs_to dff ~output:"Q" with [ a ] -> a.Cell.intrinsic_ps | _ -> nan
  in
  check_float "launch offset = clock-to-Q" t0 (Delay_graph.launch_offset dg q)

(* --- Sta ---------------------------------------------------------------- *)

let test_sta_margin_and_critical_path () =
  let netlist, _, _, _, n1, _ = fanout_circuit () in
  let dg = Delay_graph.build netlist in
  let pc = Util.blanket_constraint ~limit_ps:400.0 dg in
  let sta = Sta.create dg [ pc ] in
  let base = Sta.critical_delay sta 0 in
  check_bool "zero-cap delay positive" true (base > 0.0);
  check_float "margin" (400.0 -. base) (Sta.margin sta 0);
  (* Raising CL(n1) increases the delay by exactly td * dCL. *)
  Delay_graph.set_net_cap dg ~net:n1 ~cap_ff:50.0;
  Sta.refresh sta;
  let td = Delay_graph.driver_td dg n1 in
  check_float "delay shifts by cap" (base +. (50.0 *. td)) (Sta.critical_delay sta 0);
  (* Critical path runs port -> inv -> or3 -> port: 4 vertices. *)
  check_int "critical path length" 4 (List.length (Sta.critical_path sta 0));
  (* The nets along the path. *)
  let nets = Sta.critical_nets sta 0 in
  check_int "three stage nets" 3 (List.length nets)

let test_sta_violations_order () =
  let netlist, _, _, _, _, _ = fanout_circuit () in
  let dg = Delay_graph.build netlist in
  let base =
    let sta = Sta.create dg [ Util.blanket_constraint dg ] in
    Sta.critical_delay sta 0
  in
  let tight = Util.blanket_constraint ~limit_ps:(base /. 2.0) dg in
  let loose = Util.blanket_constraint ~limit_ps:(base *. 2.0) dg in
  let sta = Sta.create dg [ loose; tight ] in
  Alcotest.(check (list int)) "only the tight one violated" [ 1 ] (Sta.violations sta);
  (match Sta.worst sta with
  | Some (ci, m) ->
    check_int "worst is the tight one" 1 ci;
    check_bool "negative margin" true (m < 0.0)
  | None -> Alcotest.fail "expected a worst constraint");
  check_float "worst path delay" base (Sta.worst_path_delay sta)

let test_sta_gd_membership () =
  let netlist, ff, inv = ff_circuit () in
  let dg = Delay_graph.build netlist in
  (* Constraint restricted to the Q->Y half of the circuit. *)
  let pc =
    Path_constraint.make ~name:"q2y"
      ~sources:[ Delay_graph.Out { Netlist.inst = ff; term = "Q" } ]
      ~sinks:
        [ (let ports = Netlist.ports netlist in
           let y =
             Array.to_list ports
             |> List.find (fun (p : Netlist.port) -> p.Netlist.port_name = "Y")
           in
           Delay_graph.Port_out y.Netlist.port_id) ]
      ~limit_ps:1000.0
  in
  let sta = Sta.create dg [ pc ] in
  let nq = Option.get (Netlist.net_of_pin netlist { Netlist.inst = inv; term = "A" }) in
  let nd = Option.get (Netlist.net_of_pin netlist { Netlist.inst = ff; term = "D" }) in
  Alcotest.(check (list int)) "net nq under the constraint" [ 0 ] (Sta.constraints_of_net sta nq);
  Alcotest.(check (list int)) "net nd outside G_d(P)" [] (Sta.constraints_of_net sta nd);
  check_bool "gd edges of nq nonempty" true (Sta.gd_edges_of_net sta ~ci:0 ~net:nq <> []);
  check_bool "gd edges of nd empty" true (Sta.gd_edges_of_net sta ~ci:0 ~net:nd = [])

let test_static_net_order () =
  let netlist, ff, inv = ff_circuit () in
  let dg = Delay_graph.build netlist in
  (* Tight constraint on the Q->Y path only: its nets must sort before
     unconstrained nets. *)
  let y =
    Array.to_list (Netlist.ports netlist)
    |> List.find (fun (p : Netlist.port) -> p.Netlist.port_name = "Y")
  in
  let pc =
    Path_constraint.make ~name:"q2y"
      ~sources:[ Delay_graph.Out { Netlist.inst = ff; term = "Q" } ]
      ~sinks:[ Delay_graph.Port_out y.Netlist.port_id ]
      ~limit_ps:200.0
  in
  let order = Sta.static_net_order dg [ pc ] in
  check_int "every net ordered once" (Netlist.n_nets netlist) (List.length order);
  let nq = Option.get (Netlist.net_of_pin netlist { Netlist.inst = inv; term = "A" }) in
  let nd = Option.get (Netlist.net_of_pin netlist { Netlist.inst = ff; term = "D" }) in
  let position n = Option.get (List.find_index (Int.equal n) order) in
  check_bool "constrained net first" true (position nq < position nd);
  (* Slacks restore the capacitances they touched. *)
  check_float "caps untouched" 0.0 (Delay_graph.net_cap dg nq)

let test_unknown_node () =
  let netlist, _, _, _, _, _ = fanout_circuit () in
  let dg = Delay_graph.build netlist in
  let pc =
    Path_constraint.make ~name:"bad"
      ~sources:[ Delay_graph.Port_in 99 ]
      ~sinks:[ Delay_graph.Port_out 99 ]
      ~limit_ps:1.0
  in
  check_bool "unknown node rejected" true
    (match Sta.create dg [ pc ] with
    | exception Sta.Unknown_node _ -> true
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_path_constraint_validation () =
  let expect name f =
    match f () with
    | (_ : Path_constraint.t) -> Alcotest.failf "%s: expected Bad_constraint" name
    | exception Path_constraint.Bad_constraint _ -> ()
  in
  expect "no sources" (fun () ->
      Path_constraint.make ~name:"x" ~sources:[] ~sinks:[ Delay_graph.Port_out 0 ] ~limit_ps:1.0);
  expect "no sinks" (fun () ->
      Path_constraint.make ~name:"x" ~sources:[ Delay_graph.Port_in 0 ] ~sinks:[] ~limit_ps:1.0);
  expect "bad limit" (fun () ->
      Path_constraint.make ~name:"x" ~sources:[ Delay_graph.Port_in 0 ]
        ~sinks:[ Delay_graph.Port_out 0 ] ~limit_ps:0.0)

let test_refresh_for_nets () =
  let netlist, _, _, _, n1, _ = fanout_circuit () in
  let dg = Delay_graph.build netlist in
  let sta = Sta.create dg [ Util.blanket_constraint ~limit_ps:500.0 dg ] in
  let rev0 = Sta.net_timing_revision sta n1 in
  Sta.refresh_for_nets sta [ n1 ];
  check_bool "revision bumped for an affected net" true (Sta.net_timing_revision sta n1 > rev0);
  (* An empty list recomputes nothing and moves no net's revision. *)
  let revs () = List.init (Netlist.n_nets netlist) (Sta.net_timing_revision sta) in
  let before = revs () in
  Sta.refresh_for_nets sta [];
  Alcotest.(check (list int)) "empty list is a no-op" before (revs ())

(* What a per-net consumer may read about [net]: for each of its
   constraints the limit, the margin and the arrivals at the endpoints
   of its G_d(P) edges, plus those edges' weights — as raw bits. *)
let net_view sta net =
  let dag = Delay_graph.dag (Sta.delay_graph sta) in
  let bits = Int64.bits_of_float in
  List.concat_map
    (fun ci ->
      let lp = Sta.arrival sta ci in
      bits (Sta.constraint_ sta ci).Path_constraint.limit_ps
      :: bits (Sta.margin sta ci)
      :: List.concat_map
           (fun e ->
             let v, w = Dag.endpoints dag e in
             [ bits lp.(v); bits lp.(w); bits (Dag.weight dag e) ])
           (Sta.gd_edges_of_net sta ~ci ~net))
    (Sta.constraints_of_net sta net)

(* A net whose timing revision did not move reads bit-identical values
   after any sequence of capacitance changes and [refresh_for_nets]. *)
let prop_net_timing_revision =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 1 100000 in
      let* n_constraints = int_range 1 5 in
      let change = pair nat (float_range 0.0 200.0) in
      let* steps = list_size (int_range 1 6) (list_size (int_range 1 3) change) in
      return (seed, n_constraints, steps))
  in
  let print (seed, k, steps) =
    Printf.sprintf "seed=%d constraints=%d steps=%d" seed k (List.length steps)
  in
  QCheck.Test.make ~name:"unmoved net_timing_revision means unchanged timing view" ~count:30
    (QCheck.make ~print gen)
    (fun (seed, n_constraints, steps) ->
      let netlist, constraints =
        Circuit_gen.generate
          { Circuit_gen.default_params with
            Circuit_gen.seed = Int64.of_int seed;
            n_comb = 30;
            n_ff = 4;
            n_inputs = 4;
            n_outputs = 4;
            n_levels = 3;
            n_constraints }
      in
      let dg = Delay_graph.build netlist in
      let sta = Sta.create dg constraints in
      let n_nets = Netlist.n_nets netlist in
      List.for_all
        (fun changes ->
          let nets = List.map (fun (i, _) -> i mod n_nets) changes in
          let revs = Array.init n_nets (Sta.net_timing_revision sta) in
          let views = Array.init n_nets (net_view sta) in
          List.iter2 (fun net (_, cap_ff) -> Delay_graph.set_net_cap dg ~net ~cap_ff) nets changes;
          Sta.refresh_for_nets sta nets;
          List.for_all (fun n -> Sta.net_timing_revision sta n <> revs.(n)) nets
          && Array.for_all Fun.id
               (Array.init n_nets (fun n ->
                    Sta.net_timing_revision sta n <> revs.(n) || net_view sta n = views.(n))))
        steps)

let test_required_and_slack () =
  let netlist, _, _, _, _, _ = fanout_circuit () in
  let dg = Delay_graph.build netlist in
  let pc = Util.blanket_constraint ~limit_ps:400.0 dg in
  let sta = Sta.create dg [ pc ] in
  let slack = Sta.vertex_slack sta 0 in
  let required = Sta.required sta 0 in
  (* The minimum slack over G_d(P) vertices equals the margin. *)
  let min_slack = ref infinity in
  for v = 0 to Delay_graph.n_vertices dg - 1 do
    if Sta.in_gd sta 0 v && slack.(v) < !min_slack then min_slack := slack.(v)
  done;
  check_float "min slack = margin" (Sta.margin sta 0) !min_slack;
  (* Required time at a sink equals the limit. *)
  List.iter
    (fun sink -> check_float "sink required = limit" 400.0 required.(sink))
    (Delay_graph.natural_sinks dg);
  (* Every vertex on the critical path has the same (minimal) slack. *)
  List.iter
    (fun v -> check_float "critical path slack uniform" (Sta.margin sta 0) slack.(v))
    (Sta.critical_path sta 0)

let test_endpoint_reports () =
  let netlist, _, _, _, _, _ = fanout_circuit () in
  let dg = Delay_graph.build netlist in
  let pc = Util.blanket_constraint ~limit_ps:400.0 dg in
  let sta = Sta.create dg [ pc ] in
  let reports = Sta.endpoint_reports sta 0 in
  check_int "one reachable endpoint" 1 (List.length reports);
  (match reports with
  | [ r ] ->
    check_float "worst slack is the margin" (Sta.margin sta 0) r.Sta.ep_slack_ps;
    check_float "delay matches" (Sta.critical_delay sta 0) r.Sta.ep_delay_ps;
    check_bool "path ends at the endpoint" true
      (match List.rev r.Sta.ep_path with v :: _ -> v = r.Sta.ep_vertex | [] -> false);
    check_bool "path starts at a source" true
      (match r.Sta.ep_path with
      | v :: _ -> List.mem v (Delay_graph.natural_sources dg)
      | [] -> false)
  | _ -> Alcotest.fail "unexpected report shape");
  (* Sorted worst-first on a multi-endpoint circuit. *)
  let netlist2, _ = Circuit_gen.generate Circuit_gen.default_params in
  let dg2 = Delay_graph.build netlist2 in
  let pc2 = Util.blanket_constraint ~limit_ps:2000.0 dg2 in
  let sta2 = Sta.create dg2 [ pc2 ] in
  let reports = Sta.endpoint_reports sta2 0 in
  check_bool "several endpoints" true (List.length reports > 3);
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Sta.ep_slack_ps <= b.Sta.ep_slack_ps && sorted rest
    | _ -> true
  in
  check_bool "worst first" true (sorted reports)

let suite =
  [ Alcotest.test_case "Eq.1 stage delay" `Quick test_eq1_stage_delay;
    Alcotest.test_case "required and slack arrays" `Quick test_required_and_slack;
    Alcotest.test_case "endpoint timing reports" `Quick test_endpoint_reports;
    Alcotest.test_case "set_net_cap updates edges" `Quick test_set_net_cap_updates_all_edges;
    Alcotest.test_case "nodes and sources" `Quick test_nodes_and_sources;
    Alcotest.test_case "flip-flop boundary" `Quick test_ff_boundary;
    Alcotest.test_case "sta margin and critical path" `Quick test_sta_margin_and_critical_path;
    Alcotest.test_case "sta violations and worst" `Quick test_sta_violations_order;
    Alcotest.test_case "G_d membership" `Quick test_sta_gd_membership;
    Alcotest.test_case "static net order" `Quick test_static_net_order;
    Alcotest.test_case "unknown node" `Quick test_unknown_node;
    Alcotest.test_case "path constraint validation" `Quick test_path_constraint_validation;
    Alcotest.test_case "refresh_for_nets" `Quick test_refresh_for_nets;
    QCheck_alcotest.to_alcotest prop_net_timing_revision ]

let () = Alcotest.run "timing" [ ("timing", suite) ]
