(* Reference selection oracle.  At every committed deletion the commit
   hook recomputes, with no cache at all, every value the Sec. 3.4
   comparison chains read:

   - bridges of every net (Bridges.bridges on the live graph);
   - the density charts (a fresh Density recount over the live trunks);
   - the timing state (a fresh Sta over the current delay graph);
   - CL(n) and CL(n) without the edge (tentative trees of the plain
     algorithm in Ref_dijkstra, not the router's kernel).

   After each deletion it also checks the tentative tree of the net it
   touched: every terminal's path in the installed tree must be a
   shortest path of the live graph.

   It then scans the admissible candidates of the current selection
   round linearly, in the engine's visit order (nets in round order,
   then ascending edge id), keeping the first strictly best one.  The
   round's nets are all nets in [initial_route] and the rerouted net
   plus its differential partner in every improvement phase.  The
   engine must have committed the same (net, edge).  With Obs on, the
   criterion label the engine counted in [bgr_deletions_total] must be
   the label of the oracle's winner against its runner-up. *)

let penalty x limit = if x >= 0.0 then 1.0 -. (x /. limit) else exp (Float.min 50.0 (-.x /. limit))

type key = {
  id : int * int;  (* (net, edge) *)
  trunk : bool;
  cd : int;
  gl : float;
  ld : float;
  f_m : int;  (* C_m - D_m *)
  n_m : int;  (* NC_m - ND_m *)
  f_big : int;  (* C_M - D_M *)
  n_big : int;  (* NC_M - ND_M *)
  len : float;
}

(* The state one round reads, rebuilt from the primal live graphs. *)
type world = {
  router : Router.t;
  netlist : Netlist.t;
  bridges : bool array array;
  dens : Density.t;
  sta : Sta.t option;
}

let world_of router =
  let fp = Router.floorplan router in
  let netlist = Floorplan.netlist fp in
  let n_nets = Netlist.n_nets netlist in
  let bridges =
    Array.init n_nets (fun n -> Bridges.bridges (Router.routing_graph router n).Routing_graph.graph)
  in
  let dens = Density.create ~n_channels:(Floorplan.n_channels fp) ~width:(Floorplan.width fp) in
  for n = 0 to n_nets - 1 do
    let rg = Router.routing_graph router n in
    Ugraph.iter_edges rg.Routing_graph.graph (fun e ->
        match Routing_graph.edge_kind rg e.Ugraph.id with
        | Routing_graph.Trunk { channel; span } ->
          Density.add_trunk dens ~channel ~span ~w:rg.Routing_graph.pitch
            ~bridge:bridges.(n).(e.Ugraph.id)
        | Routing_graph.Branch _ | Routing_graph.Correspondence _ -> ())
  done;
  let sta =
    Option.map
      (fun sta ->
        Sta.create (Sta.delay_graph sta) (List.init (Sta.n_constraints sta) (Sta.constraint_ sta)))
      (Router.sta router)
  in
  { router; netlist; bridges; dens; sta }

(* (C_d, Gl, LD) of deleting [e] from net [n] (Eqs. 2-4). *)
let delay_part w n e =
  match w.sta with
  | None -> (0, 0.0, 0.0)
  | Some sta -> (
    match Sta.constraints_of_net sta n with
    | [] -> (0, 0.0, 0.0)
    | cons ->
      let rg = Router.routing_graph w.router n in
      let tree = Router.tree_edges w.router n in
      let cl = Routing_graph.tree_capacitance rg ~edge_ids:tree in
      let cl_without =
        if not (List.mem e tree) then cl
        else begin
          (* The plain algorithm, not the router's kernel: every
             deletion checks the kernel against slow code. *)
          let targets = List.filter (fun v -> v <> rg.Routing_graph.driver) rg.terminals in
          match
            Ref_dijkstra.tentative_tree ~exclude_edge:e rg.graph ~source:rg.driver ~targets
          with
          | Some edges -> Routing_graph.tree_capacitance rg ~edge_ids:edges
          | None -> infinity
        end
      in
      let dg = Sta.delay_graph sta in
      let dag = Delay_graph.dag dg in
      let td = Delay_graph.driver_td dg n in
      let dcl = cl_without -. cl in
      let cd = ref 0 and gl = ref 0.0 and ld = ref 0.0 in
      List.iter
        (fun ci ->
          let m = Sta.margin sta ci and lp = Sta.arrival sta ci in
          let worst = ref 0.0 in
          List.iter
            (fun de ->
              let v, u = Dag.endpoints dag de in
              if lp.(v) > neg_infinity && lp.(u) > neg_infinity then begin
                let diff = lp.(v) +. (Dag.weight dag de +. (dcl *. td)) -. lp.(u) in
                if diff > !worst then worst := diff;
                ld := !ld +. Float.max 0.0 (dcl *. td)
              end)
            (Sta.gd_edges_of_net sta ~ci ~net:n);
          let lm = m -. !worst in
          let limit = (Sta.constraint_ sta ci).Path_constraint.limit_ps in
          if lm <= 0.0 then incr cd;
          gl := !gl +. penalty lm limit -. penalty m limit)
        cons;
      (!cd, !gl, !ld))

let key_of w n e =
  let rg = Router.routing_graph w.router n in
  let cd, gl, ld = delay_part w n e in
  let channel, span = Routing_graph.density_locus rg e in
  let d_max, nd_max, d_min, nd_min = Density.edge_params w.dens ~channel ~span in
  { id = (n, e);
    trunk = Routing_graph.is_trunk rg e;
    cd;
    gl;
    ld;
    f_m = Density.cm w.dens ~channel - d_min;
    n_m = Density.ncm w.dens ~channel - nd_min;
    f_big = Density.cM w.dens ~channel - d_max;
    n_big = Density.ncM w.dens ~channel - nd_max;
    len = (Ugraph.edge rg.Routing_graph.graph e).Ugraph.weight }

let cmp_delay a b =
  let c = Int.compare a.cd b.cd in
  if c <> 0 then c
  else begin
    let c = Float.compare a.gl b.gl in
    if c <> 0 then c else Float.compare a.ld b.ld
  end

let cmp_cd a b = Int.compare a.cd b.cd

let cmp_gl_ld a b =
  let c = Float.compare a.gl b.gl in
  if c <> 0 then c else Float.compare a.ld b.ld

let cmp_density a b =
  if a.trunk && not b.trunk then -1
  else if b.trunk && not a.trunk then 1
  else
    List.fold_left
      (fun c f -> if c <> 0 then c else Int.compare (f a) (f b))
      0
      [ (fun k -> k.f_m); (fun k -> k.n_m); (fun k -> k.f_big); (fun k -> k.n_big) ]

let cmp_length a b = Float.compare b.len a.len

let chain ~area_mode =
  if area_mode then
    [ ("delay_count", cmp_cd);
      ("density", cmp_density);
      ("gl_ld", cmp_gl_ld);
      ("length", cmp_length) ]
  else [ ("delay", cmp_delay); ("density", cmp_density); ("length", cmp_length) ]

let compare_keys ~area_mode a b =
  let rec go = function
    | [] -> compare a.id b.id
    | (_, cmp) :: rest ->
      let c = cmp a b in
      if c <> 0 then c else go rest
  in
  go (chain ~area_mode)

let label ~area_mode a b =
  match List.find_opt (fun (_, cmp) -> cmp a b <> 0) (chain ~area_mode) with
  | Some (name, _) -> name
  | None -> "id_tie_break"

let admissible w n e =
  if not (Router.mirrored w.router n) then true
  else begin
    match (Netlist.net w.netlist n).Netlist.diff_partner with
    | None -> true
    | Some p ->
      let pm = Router.partner_map_copy w.router n in
      let pe = if e < Array.length pm then pm.(e) else -1 in
      pe >= 0
      && Ugraph.is_live (Router.routing_graph w.router p).Routing_graph.graph pe
      && not w.bridges.(p).(pe)
  end

let round_nets w (dc : Router.deletion_commit) =
  if dc.Router.dc_phase = "initial_route" then List.init (Netlist.n_nets w.netlist) Fun.id
  else begin
    let n = dc.Router.dc_net in
    match (Netlist.net w.netlist n).Netlist.diff_partner with
    | Some p -> [ min n p; max n p ]
    | None -> [ n ]
  end

(* The linear scan: the first strictly best candidate, and the best of
   the others. *)
let select w dc =
  let area_mode = dc.Router.dc_area_mode in
  let best = ref None and second = ref None in
  let better a b = compare_keys ~area_mode a b < 0 in
  List.iter
    (fun n ->
      let g = (Router.routing_graph w.router n).Routing_graph.graph in
      Ugraph.iter_edges g (fun e ->
          let e = e.Ugraph.id in
          if (not w.bridges.(n).(e)) && admissible w n e then begin
            let k = key_of w n e in
            match !best with
            | None -> best := Some k
            | Some b when better k b ->
              second := Some b;
              best := Some k
            | Some _ -> (
              match !second with
              | Some s when not (better k s) -> ()
              | Some _ | None -> second := Some k)
          end))
    (round_nets w dc);
  match !best with
  | None -> None
  | Some b ->
    let crit = match !second with None -> "only_candidate" | Some s -> label ~area_mode b s in
    Some (b.id, crit)

(* The tentative tree of the net a deletion touched: each terminal's
   path in [Router.tree_edges] must be as long as its fresh shortest
   distance on the live graph (plain search in Ref_dijkstra). *)
let check_tree name ~deletion router n =
  let rg = Router.routing_graph router n in
  let g = rg.Routing_graph.graph and source = rg.Routing_graph.driver in
  let fresh = (Ref_dijkstra.shortest_paths g ~source).Ref_dijkstra.dist in
  let along = Verify.tree_path_lengths g ~source (Router.tree_edges router n) in
  List.iter
    (fun v ->
      if abs_float (along.(v) -. fresh.(v)) > 1e-6 then
        Alcotest.failf "%s: after deletion %d, net %d terminal %d: tree path %g, shortest %g"
          name deletion n v along.(v) fresh.(v))
    rg.Routing_graph.terminals

let m_deletions () = Obs.Metrics.counter "bgr_deletions_total" ~labels:[ "criterion"; "phase" ]

let counted () =
  Obs.Metrics.series (m_deletions ())
  |> List.filter_map (fun (labels, v) ->
         match (List.assoc_opt "phase" labels, List.assoc_opt "criterion" labels) with
         | Some p, Some c -> Some ((p, c), int_of_float v)
         | _ -> None)

let count_of counts k = Option.value (List.assoc_opt k counts) ~default:0
let total counts = List.fold_left (fun acc (_, v) -> acc + v) 0 counts

(* Route [input] with Obs on and the oracle on the commit hook; returns
   the number of deletions checked. *)
let run_checked ?(domains = 1) ~timing_driven ~area_first name input =
  let options =
    { Router.default_options with Router.domains; area_first_ordering = area_first }
  in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let _, router = Flow.prepare ~options ~timing_driven input in
      let checked = ref 0 in
      (* The label of the previous deletion and the counts before it. *)
      let pending = ref None in
      let check_pending () =
        match !pending with
        | None -> ()
        | Some (k, before, net) ->
          let now = counted () in
          let phase, crit = k in
          if total now <> total before + 1 || count_of now k <> count_of before k + 1 then
            Alcotest.failf "%s: deletion %d should count as (%s, %s)" name !checked phase crit;
          check_tree name ~deletion:!checked router net
      in
      Router.set_commit_hook router
        (Some
           (fun dc ->
             check_pending ();
             let w = world_of router in
             (match select w dc with
             | None -> Alcotest.failf "%s: oracle has no candidate at deletion %d" name !checked
             | Some ((n, e), crit) ->
               if (n, e) <> (dc.Router.dc_net, dc.Router.dc_edge) then
                 Alcotest.failf "%s: deletion %d (%s): engine chose (%d, %d), oracle (%d, %d)" name
                   !checked dc.Router.dc_phase dc.Router.dc_net dc.Router.dc_edge n e;
               pending := Some ((dc.Router.dc_phase, crit), counted (), dc.Router.dc_net));
             incr checked));
      ignore (Router.run router);
      check_pending ();
      !checked)

let suite_case name input ~timing_driven ~area_first () =
  let n = run_checked ~timing_driven ~area_first name (input ()) in
  if n = 0 then Alcotest.failf "%s: no deletion was checked" name

let case circuit = (Suite.make_case ~circuit ~placement:Placement.P1).Suite.input
let mini () = (Suite.mini ()).Suite.input

let suite_tests =
  List.concat_map
    (fun (name, input) ->
      List.map
        (fun (timing_driven, area_first) ->
          let tag =
            Printf.sprintf "%s %s%s" name
              (if timing_driven then "timed" else "untimed")
              (if area_first then " area-first" else "")
          in
          Alcotest.test_case tag `Quick (suite_case tag input ~timing_driven ~area_first))
        [ (true, false); (true, true); (false, false); (false, true) ])
    [ ("MINI", mini); ("C1P1", fun () -> case "C1"); ("C2P1", fun () -> case "C2") ]

(* Parallel scoring must hand the selection the same keys. *)
let test_mini_parallel () =
  ignore (run_checked ~domains:2 ~timing_driven:true ~area_first:false "MINI x2" (mini ()))

(* --- random small designs ----------------------------------------------- *)

let gen_case =
  QCheck.Gen.(
    let* seed = int_range 1 100000 in
    let* n_comb = int_range 12 40 in
    let* n_ff = int_range 2 6 in
    let* n_levels = int_range 2 4 in
    let* n_diff_pairs = int_range 0 3 in
    let* n_constraints = int_range 0 5 in
    let* n_rows = int_range 2 4 in
    let* timing_driven = bool in
    let* area_first = bool in
    return
      ( { Circuit_gen.default_params with
          Circuit_gen.seed = Int64.of_int seed;
          n_comb;
          n_ff;
          n_inputs = 4;
          n_outputs = 4;
          n_levels;
          n_diff_pairs;
          n_constraints },
        n_rows,
        timing_driven,
        area_first ))

let arb_case =
  QCheck.make
    ~print:(fun (p, rows, timed, area) ->
      Printf.sprintf
        "seed=%Ld comb=%d ff=%d levels=%d pairs=%d constraints=%d rows=%d timed=%b \
         area_first=%b"
        p.Circuit_gen.seed p.Circuit_gen.n_comb p.Circuit_gen.n_ff p.Circuit_gen.n_levels
        p.Circuit_gen.n_diff_pairs p.Circuit_gen.n_constraints rows timed area)
    gen_case

let prop_random_designs =
  QCheck.Test.make ~name:"oracle agrees on random Circuit_gen designs" ~count:30 arb_case
    (fun (p, n_rows, timing_driven, area_first) ->
      (* The generator rejects a few small draws (an input port left
         unconnected); those are not designs. *)
      let netlist, constraints =
        match Circuit_gen.generate p with
        | design -> design
        | exception Netlist.Invalid _ -> QCheck.assume_fail ()
      in
      let placed = Placement.place ~netlist ~n_rows Placement.P1 in
      let input = Placement.to_flow_input ~netlist ~dims:Dims.default ~constraints placed in
      ignore (run_checked ~timing_driven ~area_first "random" input);
      true)

let () =
  Alcotest.run "selection_oracle"
    [ ("suite", suite_tests);
      ("parallel", [ Alcotest.test_case "MINI, 2 domains" `Quick test_mini_parallel ]);
      ("random", [ QCheck_alcotest.to_alcotest prop_random_designs ]) ]
