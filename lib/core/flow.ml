type input = {
  netlist : Netlist.t;
  dims : Dims.t;
  n_rows : int;
  width : int;
  cells : Floorplan.placed list;
  slots : (int * int * int) list;
  blockages : (int * int * int) list;
  constraints : Path_constraint.t list;
}

type measurement = {
  m_delay_ps : float;
  m_area_mm2 : float;
  m_length_mm : float;
  m_cpu_s : float;
  m_violations : int;
  m_margin_ps : float;
  m_lower_bound_ps : float;
  m_chip_width : int;
  m_tracks : int array;
  m_insert_rounds : int;
  m_deletions : int;
  m_recognized_pairs : int;
  m_channel_doglegs : int;
  m_channel_violations : int;
  m_stopped_because : string;  (* Router.stop_reason_string of the run *)
  m_domains : int;
  m_par_warnings : string list;
  m_deletion_hash : int;
}

type outcome = {
  o_router : Router.t;
  o_floorplan : Floorplan.t;
  o_sta : Sta.t option;
  o_channels : Channel_router.result array;
  o_measurement : measurement;
  o_run_report : Router.run_report;
}

let floorplan_of_input input =
  Floorplan.make ~netlist:input.netlist ~dims:input.dims ~n_rows:input.n_rows ~width:input.width
    ~cells:input.cells ~slots:input.slots ~blockages:input.blockages ()

let channel_segments router =
  let to_seg (cn : Router.chan_net) =
    { Channel_router.seg_net = cn.Router.cn_net;
      seg_lo = cn.Router.cn_lo;
      seg_hi = cn.Router.cn_hi;
      seg_pins =
        List.map
          (fun (p : Router.chan_pin) ->
            { Channel_router.pin_x = p.Router.cp_x; pin_from_top = p.Router.cp_from_top })
          cn.Router.cn_pins;
      seg_width = cn.Router.cn_pitch }
  in
  Array.map (List.map to_seg) (Router.channel_nets router)

type algorithm = Concurrent_edge_deletion | Sequential_net_at_a_time
type channel_algorithm = Left_edge | Left_edge_biased | Greedy

type prepared = {
  p_input : input;
  p_fp : Floorplan.t;
  p_dg : Delay_graph.t;
  p_sta : Sta.t option;
  p_order : int list;
  p_insert_rounds : int;
  p_t0 : float;
}

(* Everything up to (and including) building the router — shared by
   [run] and the crash-recovery path, which must construct a router
   over the identical floorplan/assignment before restoring state into
   it. *)
let m_density_peak =
  Obs.Metrics.gauge "bgr_channel_density_peak" ~labels:[ "channel" ]
    ~help:"Peak bridge density C_M (tracks) per channel after routing"

let prepare ?(options = Router.default_options) ?(timing_driven = true) input =
  Obs.Trace.span "flow:prepare" @@ fun () ->
  let fp0 = floorplan_of_input input in
  let t0 = Sys.time () in
  let dg = Delay_graph.build input.netlist in
  let have_constraints = input.constraints <> [] in
  let order =
    if timing_driven && have_constraints then Sta.static_net_order dg input.constraints
    else List.init (Netlist.n_nets input.netlist) Fun.id
  in
  let fp, assignment, insert_rounds = Feed_insert.assign_with_insertion fp0 ~order in
  let sta = if have_constraints then Some (Sta.create dg input.constraints) else None in
  let routing_sta = if timing_driven then sta else None in
  let router = Router.create ~options fp assignment routing_sta in
  ( { p_input = input;
      p_fp = fp;
      p_dg = dg;
      p_sta = sta;
      p_order = order;
      p_insert_rounds = insert_rounds;
      p_t0 = t0 },
    router )

(* Channel routing and final metrology over whatever trees the router
   holds.  [on_quality] receives one final post-metrology sample (phase
   "metrology") built against the measured timing state, so the quality
   log's last record matches the signoff margins exactly. *)
let finish ?(channel_algorithm = Left_edge) ?on_quality prep router run_report =
  let input = prep.p_input in
  let fp = prep.p_fp in
  let dg = prep.p_dg in
  let sta = prep.p_sta in
  let insert_rounds = prep.p_insert_rounds in
  let t0 = prep.p_t0 in
  let n_channels = Floorplan.n_channels fp in
  let route_channel =
    match channel_algorithm with
    | Left_edge -> fun segs -> Channel_router.route segs
    | Left_edge_biased -> fun segs -> Channel_router.route ~pin_bias:true segs
    | Greedy -> fun segs -> Greedy_router.route segs
  in
  let channels =
    Obs.Trace.span "flow:channel_route"
      ~attrs:[ ("channels", Obs.Trace.Int n_channels) ]
      (fun () ->
        Array.map route_channel (channel_segments router))
  in
  (let dens = Router.density router in
   for channel = 0 to n_channels - 1 do
     Obs.Metrics.set m_density_peak
       ~labels:[ ("channel", string_of_int channel) ]
       (float_of_int (Density.cM dens ~channel))
   done);
  let tracks = Array.map (fun (r : Channel_router.result) -> r.Channel_router.tracks) channels in
  let dims = Floorplan.dims fp in
  (* Final net lengths: global trunks and branches plus channel-internal
     vertical jogs. *)
  let n_nets = Netlist.n_nets input.netlist in
  let vertical_by_net = Array.make n_nets 0.0 in
  Array.iter
    (fun (r : Channel_router.result) ->
      List.iter
        (fun (net, um) -> vertical_by_net.(net) <- vertical_by_net.(net) +. um)
        (Channel_router.net_vertical_um ~track_um:dims.Dims.track_um r))
    channels;
  let final_length_um net = Router.net_length_um router net +. vertical_by_net.(net) in
  let total_length_mm =
    let sum = ref 0.0 in
    for net = 0 to n_nets - 1 do
      sum := !sum +. final_length_um net
    done;
    Dims.mm_of_um !sum
  in
  let delay_ps, margin_ps, violations, lower_bound_ps =
    Obs.Trace.span "flow:metrology" @@ fun () ->
    match sta with
    | None -> (nan, infinity, 0, nan)
    | Some sta ->
      for net = 0 to n_nets - 1 do
        let pitch = (Netlist.net input.netlist net).Netlist.pitch in
        let cap = final_length_um net *. Dims.cap_per_um_at dims ~width:(float_of_int pitch) in
        Delay_graph.set_net_cap dg ~net ~cap_ff:cap
      done;
      Sta.refresh sta;
      let delay = Sta.worst_path_delay sta in
      let margin = match Sta.worst sta with Some (_, m) -> m | None -> infinity in
      let violations = List.length (Sta.violations sta) in
      let bound = Lower_bound.critical_delay ~channel_tracks:tracks sta fp in
      (* Restore the measured (post-channel-routing) capacitances that
         Lower_bound reset to the router's estimates. *)
      for net = 0 to n_nets - 1 do
        let pitch = (Netlist.net input.netlist net).Netlist.pitch in
        let cap = final_length_um net *. Dims.cap_per_um_at dims ~width:(float_of_int pitch) in
        Delay_graph.set_net_cap dg ~net ~cap_ff:cap
      done;
      Sta.refresh sta;
      (delay, margin, violations, bound)
  in
  (match on_quality with
  | None -> ()
  | Some emit -> (
    try emit (Router.sample_quality ?sta router ~phase:"metrology")
    with _ -> () (* degrade like the in-router hook: never fail the run *)));
  let cpu_s = Sys.time () -. t0 in
  let measurement =
    { m_delay_ps = delay_ps;
      m_area_mm2 = Floorplan.chip_area_mm2 fp ~channel_tracks:tracks;
      m_length_mm = total_length_mm;
      m_cpu_s = cpu_s;
      m_violations = violations;
      m_margin_ps = margin_ps;
      m_lower_bound_ps = lower_bound_ps;
      m_chip_width = Floorplan.width fp;
      m_tracks = tracks;
      m_insert_rounds = insert_rounds;
      m_deletions = Router.n_deletions router;
      m_recognized_pairs = Router.n_recognized_pairs router;
      m_channel_doglegs =
        Array.fold_left (fun acc (r : Channel_router.result) -> acc + r.Channel_router.doglegs) 0 channels;
      m_channel_violations =
        Array.fold_left
          (fun acc (r : Channel_router.result) -> acc + r.Channel_router.violations)
          0 channels;
      m_stopped_because = Router.stop_reason_string run_report.Router.stopped_because;
      m_domains = Router.n_domains router;
      m_par_warnings = Router.pool_warnings router;
      m_deletion_hash = Router.deletion_hash router }
  in
  { o_router = router;
    o_floorplan = fp;
    o_sta = sta;
    o_channels = channels;
    o_measurement = measurement;
    o_run_report = run_report }

let run ?options ?timing_driven ?(algorithm = Concurrent_edge_deletion)
    ?(channel_algorithm = Left_edge) ?(budget = Budget.unlimited) ?on_quality input =
  let prep, router = prepare ?options ?timing_driven input in
  Router.set_quality_hook router on_quality;
  let run_report =
    Fun.protect
      ~finally:(fun () -> Router.set_quality_hook router None)
      (fun () ->
        match algorithm with
        | Concurrent_edge_deletion -> Router.run ~budget router
        | Sequential_net_at_a_time ->
          Router.route_sequential ~order:prep.p_order router;
          { Router.completed_phases = [ "route_sequential" ];
            stopped_because = Router.Finished;
            rolled_back = false })
  in
  finish ~channel_algorithm ?on_quality prep router run_report
