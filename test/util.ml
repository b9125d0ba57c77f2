(* Shared fixtures for the layout / timing / routing test suites. *)

let pin inst term = Netlist.Pin { Netlist.inst; term }

(* Inverter chain through [n] rows: IN (south) -> i0 -> ... -> OUT
   (north); instance [k] is meant for row [k mod rows]. *)
let chain_netlist n =
  let b = Netlist.builder ~library:Cell_lib.ecl_default in
  let p_in = Netlist.add_port b ~name:"IN" ~side:Netlist.South () in
  let p_out = Netlist.add_port b ~name:"OUT" ~side:Netlist.North () in
  let invs = List.init n (fun i -> Netlist.add_instance b ~name:(Printf.sprintf "i%d" i) ~cell:"INV1") in
  let arr = Array.of_list invs in
  let _ = Netlist.add_net b ~name:"n_in" ~driver:(Netlist.Port p_in) ~sinks:[ pin arr.(0) "A" ] () in
  for k = 0 to n - 2 do
    ignore
      (Netlist.add_net b ~name:(Printf.sprintf "n%d" k) ~driver:(pin arr.(k) "Z")
         ~sinks:[ pin arr.(k + 1) "A" ] ())
  done;
  let _ =
    Netlist.add_net b ~name:"n_out" ~driver:(pin arr.(n - 1) "Z") ~sinks:[ Netlist.Port p_out ] ()
  in
  (Netlist.freeze b, arr)

(* A 2x2 floorplan of the 4-inverter chain with feed slots sprinkled
   between the cells. *)
let small_floorplan ?(slots = [ (0, 4, 0); (0, 9, 0); (1, 4, 0); (1, 9, 0) ]) () =
  let netlist, invs = chain_netlist 4 in
  let cells =
    [ { Floorplan.inst = invs.(0); row = 0; x = 0 };
      { Floorplan.inst = invs.(1); row = 0; x = 6 };
      { Floorplan.inst = invs.(2); row = 1; x = 0 };
      { Floorplan.inst = invs.(3); row = 1; x = 6 } ]
  in
  let fp = Floorplan.make ~netlist ~dims:Dims.default ~n_rows:2 ~width:12 ~cells ~slots () in
  (fp, netlist, invs)

(* All-sources/all-sinks constraint over a netlist's delay graph. *)
let blanket_constraint ?(limit_ps = 1.0e6) dg =
  let node v = Delay_graph.node dg v in
  Path_constraint.make ~name:"all"
    ~sources:(List.map node (Delay_graph.natural_sources dg))
    ~sinks:(List.map node (Delay_graph.natural_sinks dg))
    ~limit_ps

(* Identity net order. *)
let id_order netlist = List.init (Netlist.n_nets netlist) Fun.id

(* Recompute a Density.t from scratch out of the router's live trunks;
   used to audit the incrementally maintained charts. *)
let recount_density router fp =
  let dens = Density.create ~n_channels:(Floorplan.n_channels fp) ~width:(Floorplan.width fp) in
  let netlist = Floorplan.netlist fp in
  for net = 0 to Netlist.n_nets netlist - 1 do
    let rg = Router.routing_graph router net in
    let bridge = Bridges.bridges rg.Routing_graph.graph in
    Ugraph.iter_edges rg.Routing_graph.graph (fun e ->
        match Routing_graph.edge_kind rg e.Ugraph.id with
        | Routing_graph.Trunk { channel; span } ->
          Density.add_trunk dens ~channel ~span ~w:rg.Routing_graph.pitch
            ~bridge:bridge.(e.Ugraph.id)
        | Routing_graph.Branch _ | Routing_graph.Correspondence _ -> ())
  done;
  dens

let densities_equal a b ~n_channels ~width =
  let ok = ref true in
  for c = 0 to n_channels - 1 do
    for x = 0 to width - 1 do
      if Density.dM_at a ~channel:c ~x <> Density.dM_at b ~channel:c ~x then ok := false;
      if Density.dm_at a ~channel:c ~x <> Density.dm_at b ~channel:c ~x then ok := false
    done
  done;
  !ok

(* The golden frame fixtures of test/corpus/frames ([dune runtest] runs
   in test/, [dune exec] from the repo root). *)
let frames_dir = if Sys.file_exists "corpus/frames" then "corpus/frames" else "test/corpus/frames"

let read_fixture name =
  In_channel.with_open_bin (Filename.concat frames_dir name) In_channel.input_all
