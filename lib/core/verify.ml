type report = {
  problems : string list;
  warnings : string list;
  checked_nets : int;
}

let ok r = r.problems = []

let routed router =
  let fp = Router.floorplan router in
  let netlist = Floorplan.netlist fp in
  let assignment = Router.assignment router in
  let n_nets = Netlist.n_nets netlist in
  let problems = ref [] and warnings = ref [] in
  let problem fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  let warn fmt = Format.kasprintf (fun s -> warnings := s :: !warnings) fmt in
  let width = Floorplan.width fp and n_channels = Floorplan.n_channels fp in
  (* Recounted densities, filled as we walk the nets. *)
  let recount = Density.create ~n_channels ~width in
  (* Feedthrough occupancy: slot id -> net. *)
  let slot_claims = Hashtbl.create 64 in
  for net = 0 to n_nets - 1 do
    let rg = Router.routing_graph router net in
    let g = rg.Routing_graph.graph in
    (* Tree structure. *)
    if not (Ugraph.connected_within g rg.Routing_graph.terminals) then
      problem "net %d: terminals disconnected" net;
    if Bridges.non_bridge_ids g <> [] then problem "net %d: not yet a tree" net;
    for v = 0 to Ugraph.n_vertices g - 1 do
      match rg.Routing_graph.vkind.(v) with
      | Routing_graph.Terminal _ -> ()
      | Routing_graph.Position _ ->
        if Ugraph.degree g v = 1 then problem "net %d: dangling stub at vertex %d" net v
    done;
    (* Geometry per live edge. *)
    let bridge = Bridges.bridges g in
    let granted = Feedthrough.slots_of_net assignment net in
    Ugraph.iter_edges g (fun e ->
        match Routing_graph.edge_kind rg e.Ugraph.id with
        | Routing_graph.Trunk { channel; span } ->
          if channel < 0 || channel >= n_channels then
            problem "net %d: trunk in unknown channel %d" net channel
          else begin
            if Interval.lo span < 0 || Interval.hi span > width then
              problem "net %d: trunk outside the chip" net;
            if
              Floorplan.trunk_blocked fp ~channel ~x1:(Interval.lo span)
                ~x2:(Interval.hi span - 1)
            then problem "net %d: trunk crosses a blockage in channel %d" net channel;
            Density.add_trunk recount ~channel ~span ~w:rg.Routing_graph.pitch
              ~bridge:bridge.(e.Ugraph.id)
          end
        | Routing_graph.Branch { row; x } -> begin
          match
            List.find_opt
              (fun (r, slots) ->
                r = row
                && List.exists (fun (s : Floorplan.slot) -> s.Floorplan.slot_x = x) slots)
              granted
          with
          | None -> problem "net %d: branch at row %d x %d without a granted feedthrough" net row x
          | Some (_, slots) ->
            List.iter
              (fun (s : Floorplan.slot) ->
                match Hashtbl.find_opt slot_claims s.Floorplan.slot_id with
                | Some other when other <> net ->
                  problem "feedthrough slot %d claimed by nets %d and %d" s.Floorplan.slot_id other
                    net
                | Some _ | None -> Hashtbl.replace slot_claims s.Floorplan.slot_id net)
              slots
        end
        | Routing_graph.Correspondence p ->
          if p.Routing_graph.channel < 0 || p.Routing_graph.channel >= n_channels then
            problem "net %d: connection in unknown channel %d" net p.Routing_graph.channel);
    (* Capacitance bookkeeping (lumped model only). *)
    (match (Router.options router).Router.cl_estimator with
    | Router.Star_bbox -> ()
    | Router.Tentative_tree ->
      if (Router.options router).Router.delay_model = Router.Lumped_c then begin
        let expected =
          Routing_graph.tree_capacitance rg ~edge_ids:(Router.tree_edges router net)
        in
        let recorded = (Router.wire_caps router).(net) in
        if abs_float (expected -. recorded) > 1e-6 then
          problem "net %d: recorded CL %.3f differs from tree capacitance %.3f" net recorded
            expected
      end);
    (* Differential pair shape. *)
    match (Netlist.net netlist net).Netlist.diff_partner with
    | Some p when p > net ->
      if Router.n_recognized_pairs router = 0 then
        warn "pair %d/%d routed without mirroring" net p
      else begin
        let shape m =
          let rgm = Router.routing_graph router m in
          Router.tree_edges router m
          |> List.filter_map (fun eid ->
                 match Routing_graph.edge_kind rgm eid with
                 | Routing_graph.Trunk { channel; span } ->
                   Some (`T (channel, Interval.length span))
                 | Routing_graph.Branch { row; _ } -> Some (`B row)
                 | Routing_graph.Correspondence _ -> None)
          |> List.sort compare
        in
        if shape net <> shape p then warn "pair %d/%d trees differ in shape" net p
      end
    | Some _ | None -> ()
  done;
  (* Density charts. *)
  let live = Router.density router in
  (try
     for c = 0 to n_channels - 1 do
       for x = 0 to width - 1 do
         if Density.dM_at live ~channel:c ~x <> Density.dM_at recount ~channel:c ~x then
           problem "density d_M mismatch at channel %d column %d" c x;
         if Density.dm_at live ~channel:c ~x <> Density.dm_at recount ~channel:c ~x then
           problem "density d_m mismatch at channel %d column %d" c x
       done
     done
   with e -> problem "density recount failed: %s" (Printexc.to_string e));
  { problems = List.rev !problems; warnings = List.rev !warnings; checked_nets = n_nets }

(* --- state audit (crash-safety invariant sweep) ---------------------- *)

type audit = {
  findings : Bgr_error.t list;
  audited_nets : int;
  repairs : string list;
}

let audit_ok a = a.findings = []

let tree_path_lengths g ~source tree =
  let adj = Array.make (Ugraph.n_vertices g) [] in
  List.iter
    (fun eid ->
      if Ugraph.is_live g eid then begin
        let e = Ugraph.edge g eid in
        adj.(e.Ugraph.u) <- e :: adj.(e.Ugraph.u);
        adj.(e.Ugraph.v) <- e :: adj.(e.Ugraph.v)
      end)
    tree;
  let len = Array.make (Ugraph.n_vertices g) infinity in
  let rec visit u =
    List.iter
      (fun e ->
        let v = Ugraph.other_endpoint e u in
        if len.(v) = infinity then begin
          len.(v) <- len.(u) +. e.Ugraph.weight;
          visit v
        end)
      adj.(u)
  in
  len.(source) <- 0.0;
  visit source;
  len

(* The invariant sweep behind resume: unlike {!routed} it accepts any
   consistent routing state (candidate edges may remain mid-run) and
   checks that every piece of *derived* state agrees with the primal
   live graphs it was incrementally maintained from. *)
let rec audit ?(repair = false) ?(measured_caps = false) router =
  let fp = Router.floorplan router in
  let netlist = Floorplan.netlist fp in
  let n_nets = Netlist.n_nets netlist in
  let findings = ref [] in
  let finding fmt =
    Format.kasprintf
      (fun s -> findings := Bgr_error.make ~phase:"audit" Bgr_error.Internal "%s" s :: !findings)
      fmt
  in
  let derived_damage = ref false in
  let broken_pairs = ref [] in
  let width = Floorplan.width fp and n_channels = Floorplan.n_channels fp in
  let opts = Router.options router in
  (* 1. Channel densities: a from-scratch recount over the live graphs
     must equal the incrementally maintained charts, column by column,
     on both the d_M and the (bridge-only) d_m chart. *)
  let recount = Density.create ~n_channels ~width in
  for net = 0 to n_nets - 1 do
    let rg = Router.routing_graph router net in
    let g = rg.Routing_graph.graph in
    let bridge = Bridges.bridges g in
    Ugraph.iter_edges g (fun e ->
        match Routing_graph.edge_kind rg e.Ugraph.id with
        | Routing_graph.Trunk { channel; span } ->
          Density.add_trunk recount ~channel ~span ~w:rg.Routing_graph.pitch
            ~bridge:bridge.(e.Ugraph.id)
        | Routing_graph.Branch _ | Routing_graph.Correspondence _ -> ())
  done;
  let live = Router.density router in
  for c = 0 to n_channels - 1 do
    let bad_max = ref 0 and bad_min = ref 0 in
    for x = 0 to width - 1 do
      if Density.dM_at live ~channel:c ~x <> Density.dM_at recount ~channel:c ~x then
        incr bad_max;
      if Density.dm_at live ~channel:c ~x <> Density.dm_at recount ~channel:c ~x then
        incr bad_min
    done;
    if !bad_max > 0 || !bad_min > 0 then begin
      derived_damage := true;
      finding "channel %d: density charts diverge from a recount (%d d_M and %d d_m columns)" c
        !bad_max !bad_min
    end
  done;
  for net = 0 to n_nets - 1 do
    let rg = Router.routing_graph router net in
    let g = rg.Routing_graph.graph in
    (* 2. Primal connectivity: deletions only ever remove non-bridge
       edges, so every net graph must still span its terminals. *)
    if not (Ugraph.connected_within g rg.Routing_graph.terminals) then
      finding "net %d: terminals disconnected — a bridge edge was deleted" net;
    (* 3. The tentative tree must consist of live edges, and under the
       lumped model the recorded CL(n) must equal its capacitance. *)
    let tree = Router.tree_edges router net in
    let dead = List.filter (fun eid -> not (Ugraph.is_live g eid)) tree in
    if dead <> [] then begin
      derived_damage := true;
      finding "net %d: %d tentative-tree edges are dead" net (List.length dead)
    end
    else begin
      (* Each terminal's path in the tree is a shortest path of the live
         graph: a deletion off the tree changes no distance, and one on
         it rebuilds the tree. *)
      let source = rg.Routing_graph.driver in
      let along = tree_path_lengths g ~source tree in
      let off =
        List.filter
          (fun v ->
            match Dijkstra.tree_length g ~source ~targets:[ v ] with
            | Some dist -> abs_float (along.(v) -. dist) > 1e-6
            | None -> false)
          rg.Routing_graph.terminals
      in
      if off <> [] then begin
        derived_damage := true;
        finding "net %d: %d terminals are off a shortest path in the tentative tree" net
          (List.length off)
      end;
      if opts.Router.cl_estimator = Router.Tentative_tree && opts.Router.delay_model = Router.Lumped_c
      then begin
        let expected = Routing_graph.tree_capacitance rg ~edge_ids:tree in
        let recorded = (Router.wire_caps router).(net) in
        if abs_float (expected -. recorded) > 1e-6 then begin
          derived_damage := true;
          finding "net %d: recorded CL %.3f fF differs from tree capacitance %.3f fF" net recorded
            expected
        end
      end
    end;
    (* 6. Mirrored pairs: the recognition map must still be a live
       kind-preserving bijection. *)
    match (Netlist.net netlist net).Netlist.diff_partner with
    | Some p when p > net && Router.mirrored router net ->
      let problems =
        Diff_pair.mirror_problems rg
          (Router.routing_graph router p)
          ~map:(Router.partner_map_copy router net)
      in
      if problems <> [] then begin
        broken_pairs := (net, p) :: !broken_pairs;
        List.iter (fun s -> finding "%s" s) problems
      end
    | Some _ | None -> ()
  done;
  (* 4 & 5. Timing: the delay graph's lumped caps must match the
     recorded CL(n), and the cached margins must survive a refresh
     (margins are a pure function of the weights — a divergence means
     a stale incremental update).  The refresh is a healing side
     effect: a clean audit leaves the state exactly as found. *)
  (match Router.sta router with
  | None -> ()
  | Some sta ->
    let dg = Sta.delay_graph sta in
    if opts.Router.delay_model = Router.Lumped_c && not measured_caps then
      for net = 0 to n_nets - 1 do
        let cap = Delay_graph.net_cap dg net in
        let recorded = (Router.wire_caps router).(net) in
        if
          (not (Float.is_nan cap))
          && recorded >= 0.0
          && abs_float (cap -. recorded) > 1e-6
        then begin
          derived_damage := true;
          finding "net %d: delay-graph CL %.3f fF differs from the router's %.3f fF" net cap
            recorded
        end
      done;
    let n_cons = Sta.n_constraints sta in
    let before = Array.init n_cons (fun ci -> Sta.margin sta ci) in
    Sta.refresh sta;
    for ci = 0 to n_cons - 1 do
      let after = Sta.margin sta ci in
      let same =
        before.(ci) = after
        || (Float.is_nan before.(ci) && Float.is_nan after)
        || abs_float (before.(ci) -. after) <= 1e-6
      in
      if not same then begin
        derived_damage := true;
        finding "constraint %d: margin stale (%.3f ps cached, %.3f ps recomputed)" ci before.(ci)
          after
      end
    done);
  let result = { findings = List.rev !findings; audited_nets = n_nets; repairs = [] } in
  if (not repair) || audit_ok result then result
  else begin
    (* Repair what can be rebuilt from the primal graphs, then re-audit
       so the caller sees what remains (primal damage is beyond help). *)
    let repairs = ref [] in
    List.iter
      (fun (n, p) ->
        Router.drop_pair_recognition router n;
        repairs := Printf.sprintf "dropped broken pair recognition of nets %d/%d" n p :: !repairs)
      (List.rev !broken_pairs);
    if !derived_damage then begin
      Router.rebuild_derived router;
      repairs :=
        "rebuilt densities, trees, wire caps and timing from the primal graphs" :: !repairs
    end;
    let again = audit ~repair:false ~measured_caps router in
    { again with repairs = List.rev !repairs }
  end

let pp ppf r =
  if ok r then
    Format.fprintf ppf "verify: OK (%d nets checked, %d warnings)@." r.checked_nets
      (List.length r.warnings)
  else
    Format.fprintf ppf "verify: %d problems over %d nets@." (List.length r.problems)
      r.checked_nets;
  List.iter (fun p -> Format.fprintf ppf "  problem: %s@." p) r.problems;
  List.iter (fun w -> Format.fprintf ppf "  warning: %s@." w) r.warnings

let pp_audit ppf a =
  if audit_ok a then Format.fprintf ppf "audit: OK (%d nets)@." a.audited_nets
  else
    Format.fprintf ppf "audit: %d findings over %d nets@." (List.length a.findings)
      a.audited_nets;
  List.iter (fun f -> Format.fprintf ppf "  finding: %s@." (Bgr_error.to_string f)) a.findings;
  List.iter (fun r -> Format.fprintf ppf "  repaired: %s@." r) a.repairs
