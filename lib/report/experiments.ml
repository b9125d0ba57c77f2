type run = {
  case : Suite.case;
  constrained : Flow.measurement;
  unconstrained : Flow.measurement;
}

let run_case ?(domains = 0) case =
  let options = { Router.default_options with Router.domains } in
  let con = Flow.run ~options ~timing_driven:true case.Suite.input in
  let unc = Flow.run ~options ~timing_driven:false case.Suite.input in
  { case; constrained = con.Flow.o_measurement; unconstrained = unc.Flow.o_measurement }

let run_suite ?cases ?(domains = 0) () =
  let cases = match cases with Some c -> c | None -> Suite.all () in
  let n = if domains = 0 then Par.default_domains () else max 1 domains in
  if n <= 1 || Par.in_worker () then List.map (run_case ~domains:n) cases
  else begin
    (* One job per (case, constrained?) measurement — twice the
       parallel width of a per-case split.  Routing a case is
       deterministic whatever engine runs it (routers built inside pool
       workers score sequentially; see Router.options.domains), so the
       parallel suite reproduces the sequential suite's numbers
       exactly, CPU-time column aside. *)
    let pool = Par.get ~domains:n () in
    let options = { Router.default_options with Router.domains = n } in
    let jobs =
      Array.of_list (List.concat_map (fun case -> [ (case, true); (case, false) ]) cases)
    in
    let measurements =
      Par.parallel_map pool
        (fun (case, timing) ->
          (Flow.run ~options ~timing_driven:timing case.Suite.input).Flow.o_measurement)
        jobs
    in
    List.mapi
      (fun i case ->
        { case; constrained = measurements.(2 * i); unconstrained = measurements.((2 * i) + 1) })
      cases
  end

let table1 cases =
  let t =
    Table.create ~title:"Table 1: test bipolar circuits (synthetic stand-ins)"
      ~columns:[ "Data"; "Circuit"; "Placement"; "cells"; "nets"; "consts."; "diff pairs" ]
  in
  List.iter
    (fun (case : Suite.case) ->
      let stats = Netlist.stats case.Suite.input.Flow.netlist in
      Table.add_row t
        [ case.Suite.case_name;
          case.Suite.circuit;
          Placement.style_name case.Suite.placement;
          Table.fint stats.Netlist.n_cells;
          Table.fint stats.Netlist.n_nets_total;
          Table.fint (List.length case.Suite.input.Flow.constraints);
          Table.fint stats.Netlist.n_diff_pairs ])
    cases;
  t

let measurement_row name (m : Flow.measurement) =
  [ name;
    Table.f1 m.Flow.m_delay_ps;
    Table.f3 m.Flow.m_area_mm2;
    Table.f1 m.Flow.m_length_mm;
    Table.f2 m.Flow.m_cpu_s;
    Table.fint m.Flow.m_violations ]

let table2 runs =
  let columns = [ "Data"; "Delay(ps)"; "Area(mm2)"; "Length(mm)"; "CPU(s)"; "viol" ] in
  let w = Table.create ~title:"Table 2a: routing results WITH constraints" ~columns in
  let wo = Table.create ~title:"Table 2b: routing results WITHOUT constraints" ~columns in
  List.iter
    (fun r ->
      Table.add_row w (measurement_row r.case.Suite.case_name r.constrained);
      Table.add_row wo (measurement_row r.case.Suite.case_name r.unconstrained))
    runs;
  (w, wo)

let reduction_pct r =
  let lb = r.constrained.Flow.m_lower_bound_ps in
  if Float.is_nan lb || lb <= 0.0 then nan
  else (r.unconstrained.Flow.m_delay_ps -. r.constrained.Flow.m_delay_ps) /. lb *. 100.0

let average_reduction_pct runs =
  let vals = List.filter_map (fun r ->
      let v = reduction_pct r in
      if Float.is_nan v then None else Some v)
      runs
  in
  match vals with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 vals /. float_of_int (List.length vals)

let table3 runs =
  let t =
    Table.create ~title:"Table 3: difference from the lower bound"
      ~columns:
        [ "Data"; "lower bound(ps)"; "Constrained"; "Unconstrained"; "reduction (% of lb)" ]
  in
  List.iter
    (fun r ->
      let lb = r.constrained.Flow.m_lower_bound_ps in
      Table.add_row t
        [ r.case.Suite.case_name;
          Table.f1 lb;
          Table.pct
            (Lower_bound.gap_percent ~delay_ps:r.constrained.Flow.m_delay_ps ~bound_ps:lb);
          Table.pct
            (Lower_bound.gap_percent ~delay_ps:r.unconstrained.Flow.m_delay_ps ~bound_ps:lb);
          Table.pct (reduction_pct r) ])
    runs;
  Table.add_row t [ "average"; ""; ""; ""; Table.pct (average_reduction_pct runs) ];
  t

let fig4_worst_channel (outcome : Flow.outcome) =
  let dens = Router.density outcome.Flow.o_router in
  let best = ref 0 and best_v = ref (-1) in
  for c = 0 to Density.n_channels dens - 1 do
    let v = Density.cM dens ~channel:c in
    if v > !best_v then begin
      best_v := v;
      best := c
    end
  done;
  !best

let fig4_of_density dens ~channel =
  let chart = Density.chart dens ~channel in
  let c_max = Density.cM dens ~channel in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "Fig. 4: density chart of channel %d  (C_M=%d NC_M=%d  C_m=%d NC_m=%d)\n" channel c_max
       (Density.ncM dens ~channel) (Density.cm dens ~channel) (Density.ncm dens ~channel));
  (* Rows from the maximum density down to 1; '#' marks d_M, '*' marks
     columns where even the bridge chart d_m reaches the level. *)
  let width = Array.length chart in
  let step = max 1 (width / 100) in
  for level = c_max downto 1 do
    Buffer.add_string buf (Printf.sprintf "%3d |" level);
    let x = ref 0 in
    while !x < width do
      let d_max, d_min = chart.(!x) in
      Buffer.add_char buf (if d_min >= level then '*' else if d_max >= level then '#' else ' ');
      x := !x + step
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf ("    +" ^ String.make ((width + step - 1) / step) '-' ^ "> x\n");
  Buffer.add_string buf "    ('#' = d_M, '*' = d_m: bridge trunks that can no longer be deleted)\n";
  Buffer.contents buf

let fig4 (outcome : Flow.outcome) ~channel =
  fig4_of_density (Router.density outcome.Flow.o_router) ~channel

type ablation_row = {
  ab_name : string;
  ab_delay_ps : float;
  ab_area_mm2 : float;
  ab_length_mm : float;
  ab_violations : int;
}

let ablation_table ~title rows =
  let t =
    Table.create ~title ~columns:[ "variant"; "Delay(ps)"; "Area(mm2)"; "Length(mm)"; "viol" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [ r.ab_name;
          Table.f1 r.ab_delay_ps;
          Table.f3 r.ab_area_mm2;
          Table.f1 r.ab_length_mm;
          Table.fint r.ab_violations ])
    rows;
  t

let measure name (m : Flow.measurement) =
  { ab_name = name;
    ab_delay_ps = m.Flow.m_delay_ps;
    ab_area_mm2 = m.Flow.m_area_mm2;
    ab_length_mm = m.Flow.m_length_mm;
    ab_violations = m.Flow.m_violations }

let ablation_a1 (case : Suite.case) =
  let paper = Flow.run ~timing_driven:true case.Suite.input in
  let options = { Router.default_options with Router.area_first_ordering = true } in
  let area_first = Flow.run ~options ~timing_driven:true case.Suite.input in
  ablation_table
    ~title:
      (Printf.sprintf "Ablation A1 (%s): criterion ordering during selection" case.Suite.case_name)
    [ measure "delay-first (paper, Sec. 3.4)" paper.Flow.o_measurement;
      measure "density-first (area-phase order)" area_first.Flow.o_measurement ]

let ablation_a3 (case : Suite.case) =
  let tree = Flow.run ~timing_driven:true case.Suite.input in
  let options = { Router.default_options with Router.cl_estimator = Router.Star_bbox } in
  let star = Flow.run ~options ~timing_driven:true case.Suite.input in
  ablation_table
    ~title:(Printf.sprintf "Ablation A3 (%s): CL(n) estimator" case.Suite.case_name)
    [ measure "tentative tree (paper, Sec. 3.2)" tree.Flow.o_measurement;
      measure "star / half-perimeter" star.Flow.o_measurement ]

(* Direct model comparison on one routed result: how far the Elmore
   delays sit above the lumped CL*Td wire delays on the final trees —
   the quantitative backing for the paper's "wire resistance is rather
   small" argument. *)
let rc_vs_lumped_worst (outcome : Flow.outcome) =
  let router = outcome.Flow.o_router in
  let fp = outcome.Flow.o_floorplan in
  let netlist = Floorplan.netlist fp in
  let dims = Floorplan.dims fp in
  let worst_ratio = ref 1.0 in
  for net = 0 to Netlist.n_nets netlist - 1 do
    let rg = Router.routing_graph router net in
    let tree = Router.tree_edges router net in
    let r = Elmore.analyze ~dims ~netlist ~rg ~tree () in
    let lumped =
      Routing_graph.tree_capacitance rg ~edge_ids:tree *. Elmore.driver_td netlist rg
    in
    if lumped > 1e-9 && r.Elmore.worst_ps /. lumped > !worst_ratio then
      worst_ratio := r.Elmore.worst_ps /. lumped
  done;
  !worst_ratio

let ablation_a4 (case : Suite.case) =
  let lumped = Flow.run ~timing_driven:true case.Suite.input in
  let options = { Router.default_options with Router.delay_model = Router.Elmore_rc } in
  let rc = Flow.run ~options ~timing_driven:true case.Suite.input in
  ( ablation_table
      ~title:
        (Printf.sprintf "Ablation A4 (%s): delay model during routing" case.Suite.case_name)
      [ measure "lumped capacitance (paper, Eq. 1)" lumped.Flow.o_measurement;
        measure "Elmore RC (Sec. 2.1 extension)" rc.Flow.o_measurement ],
    rc_vs_lumped_worst lumped )

let ablation_a5 (case : Suite.case) =
  let concurrent = Flow.run case.Suite.input in
  let sequential =
    Flow.run ~algorithm:Flow.Sequential_net_at_a_time case.Suite.input
  in
  ablation_table
    ~title:
      (Printf.sprintf "Ablation A5 (%s): concurrent edge deletion vs sequential baseline"
         case.Suite.case_name)
    [ measure "concurrent edge deletion (paper)" concurrent.Flow.o_measurement;
      measure "sequential net-at-a-time" sequential.Flow.o_measurement ]

let ablation_a6 (case : Suite.case) =
  let left_edge = Flow.run case.Suite.input in
  let greedy = Flow.run ~channel_algorithm:Flow.Greedy case.Suite.input in
  ablation_table
    ~title:
      (Printf.sprintf "Ablation A6 (%s): detailed channel router" case.Suite.case_name)
    [ measure "constrained left-edge + doglegs" left_edge.Flow.o_measurement;
      measure "greedy (Rivest-Fiduccia style)" greedy.Flow.o_measurement ]

(* A7 — Sec. 4.2's motivation for multi-pitch wires, as an electrical
   what-if: the same routed clock tree analyzed at several effective
   widths.  Widening scales resistance down (and capacitance up), so
   the resistive skew across the fan-out shrinks while the lumped load
   grows — exactly the trade the paper spends feedthrough columns on. *)
let ablation_a8 (case : Suite.case) =
  let plain = Flow.run case.Suite.input in
  let biased = Flow.run ~channel_algorithm:Flow.Left_edge_biased case.Suite.input in
  ablation_table
    ~title:
      (Printf.sprintf "Ablation A8 (%s): pin-side track bias in the channel router"
         case.Suite.case_name)
    [ measure "left-edge, pure left-edge order" plain.Flow.o_measurement;
      measure "left-edge + pin-side bias (extension)" biased.Flow.o_measurement ]

let ablation_a7 () =
  let case = Suite.make_case ~circuit:"C1" ~placement:Placement.P1 in
  let netlist = case.Suite.input.Flow.netlist in
  let outcome = Flow.run case.Suite.input in
  let t =
    Table.create
      ~title:"Ablation A7 (C1 clock tree): effective wire width vs skew (Sec. 4.2)"
      ~columns:[ "effective pitch"; "clock skew (ps)"; "resistive spread vs 1-pitch" ]
  in
  (match Skew.widest_net netlist with
  | None -> ()
  | Some clk ->
    let router = outcome.Flow.o_router in
    let fp = outcome.Flow.o_floorplan in
    let rg = Router.routing_graph router clk in
    let tree = Router.tree_edges router clk in
    let base_pitch = rg.Routing_graph.pitch in
    let skew_at scale =
      let r = Elmore.analyze ~width_scale:scale ~dims:(Floorplan.dims fp) ~netlist ~rg ~tree () in
      match r.Elmore.delay_ps with
      | [] | [ _ ] -> 0.0
      | delays ->
        let values = List.map snd delays in
        List.fold_left max neg_infinity values -. List.fold_left min infinity values
    in
    let reference = skew_at (1.0 /. float_of_int base_pitch) in
    List.iter
      (fun eff ->
        let scale = float_of_int eff /. float_of_int base_pitch in
        let skew = skew_at scale in
        Table.add_row t
          [ Table.fint eff;
            Table.f3 skew;
            Table.pct (if reference > 1e-12 then skew /. reference *. 100.0 else nan) ])
      [ 1; 2; 4; 8 ]);
  t
