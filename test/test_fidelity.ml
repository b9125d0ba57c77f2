(* Paper-fidelity details that the themed suites do not check
   directly. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Sec. 3.1: "For nets that need to go through two or more cell rows,
   feedthrough positions are assigned in the same x coordinates if
   possible." *)
let test_feedthrough_column_alignment () =
  let b = Netlist.builder ~library:Cell_lib.ecl_default in
  let p = Netlist.add_port b ~name:"IN" ~side:Netlist.South () in
  let d = Netlist.add_instance b ~name:"d" ~cell:"BUF2" in
  let s = Netlist.add_instance b ~name:"s" ~cell:"INV1" in
  let q = Netlist.add_port b ~name:"OUT" ~side:Netlist.North () in
  let _ = Netlist.add_net b ~name:"n0" ~driver:(Netlist.Port p) ~sinks:[ Util.pin d "A" ] () in
  let far = Netlist.add_net b ~name:"far" ~driver:(Util.pin d "Z") ~sinks:[ Util.pin s "A" ] () in
  let _ = Netlist.add_net b ~name:"n1" ~driver:(Util.pin s "Z") ~sinks:[ Netlist.Port q ] () in
  let netlist = Netlist.freeze b in
  (* Driver in row 0, sink in row 3: rows 1 and 2 must be crossed.  Row
     1 offers slots at columns 2 and 8; row 2 at 2 and 5.  The terminals
     sit near column 1, so row 1 takes column 2 — and row 2 must align
     at column 2 even though 5 is also free. *)
  let cells = [ { Floorplan.inst = d; row = 0; x = 0 }; { Floorplan.inst = s; row = 3; x = 0 } ] in
  let slots = [ (1, 2, 0); (1, 8, 0); (2, 5, 0); (2, 2, 0) ] in
  let fp = Floorplan.make ~netlist ~dims:Dims.default ~n_rows:4 ~width:12 ~cells ~slots () in
  let assignment, failures = Feedthrough.assign fp ~order:(Util.id_order netlist) in
  Alcotest.(check bool) "assigned" true (failures = []);
  (match Feedthrough.slots_of_net assignment far with
  | [ (1, [ s1 ]); (2, [ s2 ]) ] ->
    check_int "row 1 near the terminals" 2 s1.Floorplan.slot_x;
    check_int "row 2 aligned with row 1" 2 s2.Floorplan.slot_x
  | _ -> Alcotest.fail "expected grants in rows 1 and 2");
  (* Take the aligned slot away: the net settles for column 5. *)
  let fp2 =
    Floorplan.make ~netlist ~dims:Dims.default ~n_rows:4 ~width:12 ~cells
      ~slots:[ (1, 2, 0); (1, 8, 0); (2, 5, 0) ] ()
  in
  let assignment2, failures2 = Feedthrough.assign fp2 ~order:(Util.id_order netlist) in
  Alcotest.(check bool) "assigned without alignment" true (failures2 = []);
  match Feedthrough.slots_of_net assignment2 far with
  | [ (1, _); (2, [ s2 ]) ] -> check_int "fallback column" 5 s2.Floorplan.slot_x
  | _ -> Alcotest.fail "expected grants"

(* Sec. 3.1: the feedthrough order comes from static slacks — a tighter
   constraint must push its nets forward in the order. *)
let test_slack_order_prioritizes_tight_paths () =
  let netlist, constraints = Circuit_gen.generate Circuit_gen.default_params in
  let dg = Delay_graph.build netlist in
  (* Tighten the first constraint drastically relative to the rest. *)
  let tightened =
    List.mapi
      (fun i (pc : Path_constraint.t) ->
        if i = 0 then
          Path_constraint.make ~name:pc.Path_constraint.cname
            ~sources:pc.Path_constraint.sources ~sinks:pc.Path_constraint.sinks
            ~limit_ps:(pc.Path_constraint.limit_ps /. 10.0)
        else pc)
      constraints
  in
  let order = Sta.static_net_order dg tightened in
  let sta = Sta.create dg tightened in
  let critical = Sta.critical_nets sta 0 in
  (* The tight constraint's critical nets must all appear in the first
     half of the order. *)
  let n = Netlist.n_nets netlist in
  let position net = Option.get (List.find_index (Int.equal net) order) in
  List.iter
    (fun net ->
      check_bool
        (Printf.sprintf "critical net %d ordered early" net)
        true
        (position net < n / 2))
    critical

(* Generator locality: raising the locality knob must shrink the placed
   total HPWL (the knob exists to make circuits placeable at all). *)
let test_locality_shrinks_wirelength () =
  let hpwl locality =
    let params =
      { Circuit_gen.default_params with Circuit_gen.seed = 77L; n_comb = 80; locality }
    in
    let netlist, _ = Circuit_gen.generate params in
    let placed = Placement.place ~netlist ~n_rows:4 Placement.P1 in
    let fp =
      Floorplan.make ~netlist ~dims:Dims.default ~n_rows:4 ~width:placed.Placement.r_width
        ~cells:placed.Placement.r_cells ~slots:placed.Placement.r_slots ()
    in
    let total = ref 0 in
    for net = 0 to Netlist.n_nets netlist - 1 do
      total := !total + Rect.half_perimeter (Floorplan.net_bbox fp net)
    done;
    !total
  in
  check_bool "local circuits place shorter" true (hpwl 0.9 < hpwl 0.0)

(* Dijkstra distances against a Bellman-Ford reference. *)
let prop_dijkstra_vs_bellman =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 8 in
      let* m = int_range 1 16 in
      let* pairs =
        list_repeat m (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (float_range 0.1 10.0))
      in
      return (n, pairs))
  in
  QCheck.Test.make ~name:"dijkstra: equals Bellman-Ford distances" ~count:300 (QCheck.make gen)
    (fun (n, pairs) ->
      let g = Ugraph.create () in
      for _ = 1 to n do
        ignore (Ugraph.add_vertex g)
      done;
      List.iter (fun (u, v, w) -> if u <> v then ignore (Ugraph.add_edge g ~u ~v ~weight:w)) pairs;
      let r = Ref_dijkstra.shortest_paths g ~source:0 in
      (* Bellman-Ford over the undirected edges. *)
      let dist = Array.make n infinity in
      dist.(0) <- 0.0;
      for _ = 1 to n do
        Ugraph.iter_edges g (fun e ->
            if dist.(e.Ugraph.u) +. e.Ugraph.weight < dist.(e.Ugraph.v) then
              dist.(e.Ugraph.v) <- dist.(e.Ugraph.u) +. e.Ugraph.weight;
            if dist.(e.Ugraph.v) +. e.Ugraph.weight < dist.(e.Ugraph.u) then
              dist.(e.Ugraph.u) <- dist.(e.Ugraph.v) +. e.Ugraph.weight)
      done;
      let ok = ref true in
      for v = 0 to n - 1 do
        if dist.(v) = infinity then begin
          if r.Ref_dijkstra.dist.(v) <> infinity then ok := false
        end
        else if abs_float (dist.(v) -. r.Ref_dijkstra.dist.(v)) > 1e-9 then ok := false
      done;
      !ok)

(* Arrival times are monotone in any net's capacitance. *)
let prop_arrival_monotone_in_caps =
  let case = lazy (Suite.mini ()) in
  QCheck.Test.make ~name:"sta: arrivals monotone in wiring capacitance" ~count:30
    QCheck.(pair (make Gen.(int_range 0 50)) (make Gen.(float_range 1.0 100.0)))
    (fun (net_salt, extra) ->
      let case = Lazy.force case in
      let netlist = case.Suite.input.Flow.netlist in
      let dg = Delay_graph.build netlist in
      let sta = Sta.create dg case.Suite.input.Flow.constraints in
      let net = net_salt mod Netlist.n_nets netlist in
      let before = Array.init (Sta.n_constraints sta) (fun ci -> Sta.critical_delay sta ci) in
      Delay_graph.set_net_cap dg ~net ~cap_ff:extra;
      Sta.refresh sta;
      let ok = ref true in
      Array.iteri
        (fun ci b -> if Sta.critical_delay sta ci < b -. 1e-9 then ok := false)
        before;
      !ok)

(* The suite's extra placement (C3P2) exists even though the paper only
   tabulates C3P1. *)
let test_c3p2_available () =
  let case = Suite.make_case ~circuit:"C3" ~placement:Placement.P2 in
  check_bool "constructible" true (case.Suite.case_name = "C3P2")

let suite =
  [ Alcotest.test_case "feedthrough column alignment (Sec. 3.1)" `Quick
      test_feedthrough_column_alignment;
    Alcotest.test_case "slack order prioritizes tight paths" `Quick
      test_slack_order_prioritizes_tight_paths;
    Alcotest.test_case "generator locality shrinks wirelength" `Quick
      test_locality_shrinks_wirelength;
    QCheck_alcotest.to_alcotest prop_dijkstra_vs_bellman;
    QCheck_alcotest.to_alcotest prop_arrival_monotone_in_caps;
    Alcotest.test_case "C3P2 constructible" `Quick test_c3p2_available ]

let () = Alcotest.run "fidelity" [ ("fidelity", suite) ]
