type cl_estimator = Tentative_tree | Star_bbox
type delay_model = Lumped_c | Elmore_rc

type options = {
  cl_estimator : cl_estimator;
  delay_model : delay_model;
  area_first_ordering : bool;
  max_recover_passes : int;
  max_delay_passes : int;
  max_area_passes : int;
  domains : int;
}

let default_options =
  { cl_estimator = Tentative_tree;
    delay_model = Lumped_c;
    area_first_ordering = false;
    max_recover_passes = 4;
    max_delay_passes = 3;
    max_area_passes = 3;
    domains = 0 }

type phase_report = { reroutes : int; passes : int }

(* Per-edge lazily refreshed heuristic values.  Each group carries the
   stamps it was computed at: the net's revision, the net's timing
   revision and the locus channel's density revision. *)
type eval = {
  mutable ev_cl_rev : int;
  mutable ev_cl_without : float;
  mutable ev_key_timing_rev : int;
  mutable ev_key_net_rev : int;
  mutable ev_cd : int;
  mutable ev_gl : float;
  mutable ev_ld : float;
  mutable ev_lm_min : float;
      (* Worst local margin LM(e,P) across the net's constraints,
         computed alongside ev_cd/ev_gl/ev_ld.  Deterministic and never
         read by any comparator — it only feeds the local-margin
         histogram at commit time. *)
  mutable ev_dens_rev : int;
  (* The density key of Sec. 3.4: channel aggregate minus the edge's
     interval parameter, C_m - D_m, NC_m - ND_m, C_M - D_M, NC_M - ND_M. *)
  mutable ev_f_m : int;
  mutable ev_n_m : int;
  mutable ev_f_big : int;
  mutable ev_n_big : int;
}

let fresh_eval () =
  { ev_cl_rev = -1;
    ev_cl_without = 0.0;
    ev_key_timing_rev = -1;
    ev_key_net_rev = -1;
    ev_cd = 0;
    ev_gl = 0.0;
    ev_ld = 0.0;
    ev_lm_min = infinity;
    ev_dens_rev = -1;
    ev_f_m = 0;
    ev_n_m = 0;
    ev_f_big = 0;
    ev_n_big = 0 }

(* A checkpoint is each net's live candidate-graph edge set plus the
   deletion counters; edge ids are stable because init_net_state
   rebuilds a net's graph deterministically. *)
type checkpoint = { ck_deletions : int; ck_del_hash : int; ck_live : int list array }

(* One committed primary deletion, as observed by the write-ahead
   journal hook *before* the cascade runs: the counters are the state
   the deletion starts from, so a replay can verify the chain. *)
type deletion_commit = {
  dc_phase : string;
  dc_area_mode : bool;
  dc_net : int;
  dc_edge : int;
  dc_deletions_before : int;
  dc_hash_before : int;
}

(* Solution-quality telemetry (lib/analyze).  A sample is a snapshot of
   the quality state — margins, violations, per-channel density, the
   winning-criterion mix since the previous sample — emitted through
   the orchestrator-installed quality hook at a bounded cadence, at the
   end of every improvement pass, and at every phase boundary. *)
type quality_kind = Q_cadence | Q_pass | Q_phase

type quality_sample = {
  qs_kind : quality_kind;
  qs_phase : string;
  qs_pass : int;
  qs_deletions : int;
      (* n_deletions at sample time — correlates with the journal's
         deletions_before chain *)
  qs_worst_margin_ps : float;  (* nan without timing state *)
  qs_worst_constraint : int;  (* -1 when none *)
  qs_total_negative_ps : float;
  qs_violations : int;
  qs_ep_slack_min_ps : float;  (* endpoint-slack extremes; nan without sinks *)
  qs_ep_slack_max_ps : float;
  qs_density : int array;  (* C_M per channel *)
  qs_criteria : (string * int) list;
      (* deletions since the previous sample, by winning criterion *)
  qs_margins : float array;  (* per-constraint margins; Q_phase only *)
}

type net_state = {
  mutable rg : Routing_graph.t;
  mutable bridge : bool array;
  mutable candidates : int list;
  mutable tree : int list;
  mutable tree_set : bool array;
  mutable cl_ff : float;
  mutable rev : int;
  mutable evals : eval array;
  mutable partner_map : int array;  (* -1 entries; [||] when not mirrored *)
}

type t = {
  fp : Floorplan.t;
  assignment : Feedthrough.assignment;
  sta : Sta.t option;
  dens : Density.t;
  mutable nets : net_state array;
  opts : options;
  hpwl_cap : float array;
  jog_um : float array;
      (* Expected in-channel vertical jog per connection point, per
         channel.  The global router cannot see detailed track
         positions, but the delay measured after channel routing
         includes every pin's descent to its track; pricing that
         surcharge into CL(n) keeps the margins the selection
         heuristics work with commensurate with the final metrology. *)
  mutable deletions : int;
  mutable del_hash : int;
      (* Running hash of the (net, edge) deletion sequence, cascades
         included — the equivalence tests' fingerprint that parallel
         scoring leaves the algorithm bit-for-bit unchanged. *)
  mutable area_mode : bool;
  par : Par.t option;  (* None: strictly sequential scoring *)
  mutable cur_phase : string;  (* phase tag stamped on journaled deletions *)
  mutable on_commit : (deletion_commit -> unit) option;
  mutable on_checkpoint : (phase:string -> completed:string list -> checkpoint -> unit) option;
  mutable on_quality : (quality_sample -> unit) option;
  q_crit : (string, int) Hashtbl.t;
      (* committed deletions since the last quality sample, by winning
         criterion — drained into each sample's qs_criteria *)
  mutable q_unsampled : int;  (* committed deletions since the last sample *)
}

let floorplan t = t.fp
let assignment t = t.assignment
let sta t = t.sta
let density t = t.dens
let options t = t.opts
let n_deletions t = t.deletions
let deletion_hash t = t.del_hash
let n_domains t = match t.par with None -> 1 | Some pool -> Par.domains pool
let pool_warnings t = match t.par with None -> [] | Some pool -> Par.warnings pool
let set_commit_hook t hook = t.on_commit <- hook
let set_checkpoint_hook t hook = t.on_checkpoint <- hook

let set_quality_hook t hook =
  t.on_quality <- hook;
  Hashtbl.reset t.q_crit;
  t.q_unsampled <- 0

let n_recognized_pairs t =
  Array.fold_left (fun acc ns -> if Array.length ns.partner_map > 0 then acc + 1 else acc) 0 t.nets
  / 2
let set_area_mode t flag = t.area_mode <- flag

(* --- observability (read-only; must never steer a routing decision) -- *)

let m_deletions =
  Obs.Metrics.counter "bgr_deletions_total" ~labels:[ "criterion"; "phase" ]
    ~help:
      "Committed primary deletions by routing phase and by the selection criterion that \
       separated the winner from the runner-up"

let m_cascade =
  Obs.Metrics.counter "bgr_cascade_deletions_total" ~labels:[ "phase" ]
    ~help:"Secondary deletions (dangling prunes, mirrored partner) per primary deletion"

let m_bridge_rej =
  Obs.Metrics.counter "bgr_bridge_rejections_total"
    ~help:"Mirrored-pair candidates rejected because the partner image was dead or a bridge"

let m_rollbacks =
  Obs.Metrics.counter "bgr_rollbacks_total"
    ~help:"Checkpoint rollbacks after a deadline or an injected fault"

let m_phase_dur =
  Obs.Metrics.gauge "bgr_phase_duration_seconds" ~labels:[ "phase" ]
    ~help:"Wall seconds of the most recent execution of each phase"

let m_phase_total =
  Obs.Metrics.counter "bgr_phase_seconds_total" ~labels:[ "phase" ]
    ~help:"Cumulative wall seconds per phase across runs"

let m_headroom =
  Obs.Metrics.gauge "bgr_budget_headroom_ms"
    ~help:"Remaining deadline budget in milliseconds at the last guard check"

let m_batch =
  Obs.Metrics.histogram "bgr_scoring_batch_seconds"
    ~help:"Latency of one selection round (dirty-leaf scoring + winner-tree update)"

let m_lm =
  Obs.Metrics.histogram "bgr_local_margin_ps"
    ~buckets:[| -1000.; -300.; -100.; -30.; -10.; 0.; 10.; 30.; 100.; 300.; 1000.; 3000. |]
    ~help:
      "Worst local margin LM(e,P) in picoseconds of each committed deletion (negative = \
       constraint-violating at selection time)"

(* Hot-path records are dropped on pool workers (the parallel suite
   runner routes whole cases inside workers); this is the single gate. *)
let observing () = Obs.enabled () && not (Par.in_worker ())

(* --- solution-quality telemetry -------------------------------------- *)

(* Quality recording is hook-driven (no global flag): the orchestrator
   installs the hook, workers never emit.  Everything a sample reads is
   a warm-cache or O(channels + sinks) aggregate — building one must
   never steer a routing decision or change the deletion sequence. *)
let quality_on t = t.on_quality <> None && not (Par.in_worker ())

(* Committed primary deletions between cadence samples.  Low enough to
   resolve the initial-route convergence curve, high enough that a
   sample costs a vanishing fraction of a selection round. *)
let quality_cadence = 64

let build_quality_sample ?sta_override t ~kind ~phase ~pass ~drain =
  let density =
    Array.init (Density.n_channels t.dens) (fun channel -> Density.cM t.dens ~channel)
  in
  let sta = match sta_override with Some _ -> sta_override | None -> t.sta in
  let worst_margin, worst_ci, total_negative, violations, ep_min, ep_max, margins =
    match sta with
    | None -> (nan, -1, 0.0, 0, nan, nan, [||])
    | Some sta ->
      let margins = Sta.margins sta in
      let worst_ci = ref (-1) and worst = ref infinity in
      let total = ref 0.0 and viol = ref 0 in
      Array.iteri
        (fun ci m ->
          if m < !worst then begin
            worst := m;
            worst_ci := ci
          end;
          if m < 0.0 then begin
            total := !total +. m;
            incr viol
          end)
        margins;
      let ep_min, ep_max =
        match Sta.endpoint_slack_extremes sta with
        | Some (lo, hi) -> (lo, hi)
        | None -> (nan, nan)
      in
      ( (if Array.length margins = 0 then nan else !worst),
        !worst_ci,
        !total,
        !viol,
        ep_min,
        ep_max,
        (* Per-constraint margins only on phase records: they feed the
           slack waterfall, and per-cadence copies would bloat the log. *)
        (match kind with Q_phase -> margins | Q_cadence | Q_pass -> [||]) )
  in
  let criteria =
    if drain then begin
      let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.q_crit [] in
      Hashtbl.reset t.q_crit;
      t.q_unsampled <- 0;
      List.sort compare l
    end
    else []
  in
  { qs_kind = kind;
    qs_phase = phase;
    qs_pass = pass;
    qs_deletions = t.deletions;
    qs_worst_margin_ps = worst_margin;
    qs_worst_constraint = worst_ci;
    qs_total_negative_ps = total_negative;
    qs_violations = violations;
    qs_ep_slack_min_ps = ep_min;
    qs_ep_slack_max_ps = ep_max;
    qs_density = density;
    qs_criteria = criteria;
    qs_margins = margins }

(* Public probe for the orchestrator (Flow emits a final post-metrology
   sample through it).  Does not drain the criterion counts. *)
let sample_quality ?sta t ~phase =
  build_quality_sample ?sta_override:sta t ~kind:Q_phase ~phase ~pass:0 ~drain:false

(* A raising hook degrades to a warning and is disabled, like an Obs
   sink: quality telemetry must never fail (or alter) the run. *)
let emit_quality t ~kind ~phase ~pass =
  (* Pass boundaries reach the flight recorder even when no quality
     hook is installed: the black box must not depend on telemetry
     being asked for. *)
  (match kind with
  | Q_pass ->
    Flight.record Flight.k_pass ~a:(Flight.phase_code phase) ~b:pass ~c:0 ~d:t.deletions
  | Q_cadence | Q_phase -> ());
  match t.on_quality with
  | None -> ()
  | Some _ when Par.in_worker () -> ()
  | Some hook -> (
    let s = build_quality_sample t ~kind ~phase ~pass ~drain:true in
    try hook s
    with e ->
      t.on_quality <- None;
      Obs.warn "quality hook failed and was disabled: %s"
        (match e with
        | Bgr_error.Error err -> err.Bgr_error.message
        | Sys_error m -> m
        | e -> Printexc.to_string e))

(* Per-committed-deletion bookkeeping: count the winning criterion and
   emit a cadence sample every [quality_cadence] commits. *)
let note_quality_deletion t crit =
  Hashtbl.replace t.q_crit crit
    (1 + Option.value (Hashtbl.find_opt t.q_crit crit) ~default:0);
  t.q_unsampled <- t.q_unsampled + 1;
  if t.q_unsampled >= quality_cadence then
    emit_quality t ~kind:Q_cadence ~phase:t.cur_phase ~pass:0

(* --- density bookkeeping ------------------------------------------- *)

let register_edge_density t ns (e : Ugraph.edge) =
  match Routing_graph.edge_kind ns.rg e.Ugraph.id with
  | Routing_graph.Trunk { channel; span } ->
    Density.add_trunk t.dens ~channel ~span ~w:ns.rg.Routing_graph.pitch
      ~bridge:ns.bridge.(e.Ugraph.id)
  | Routing_graph.Branch _ | Routing_graph.Correspondence _ -> ()

let unregister_edge_density t ns (e : Ugraph.edge) =
  match Routing_graph.edge_kind ns.rg e.Ugraph.id with
  | Routing_graph.Trunk { channel; span } ->
    Density.remove_trunk t.dens ~channel ~span ~w:ns.rg.Routing_graph.pitch
      ~bridge:ns.bridge.(e.Ugraph.id)
  | Routing_graph.Branch _ | Routing_graph.Correspondence _ -> ()

let register_net_density t ns = Ugraph.iter_edges ns.rg.Routing_graph.graph (register_edge_density t ns)
let unregister_net_density t ns = Ugraph.iter_edges ns.rg.Routing_graph.graph (unregister_edge_density t ns)

(* The deletion candidates of a net: its live non-bridge edges, in id
   order. *)
let non_bridges g bridge =
  List.rev
    (Ugraph.fold_edges g
       (fun acc (e : Ugraph.edge) -> if bridge.(e.Ugraph.id) then acc else e.Ugraph.id :: acc)
       [])

(* Recompute the bridge set; reflect status flips of live trunks in the
   d_m chart and refresh the candidate list. *)
let refresh_bridges t ns =
  let g = ns.rg.Routing_graph.graph in
  let nb = Bridges.bridges g in
  Ugraph.iter_edges g (fun e ->
      let id = e.Ugraph.id in
      if nb.(id) <> ns.bridge.(id) then begin
        match Routing_graph.edge_kind ns.rg id with
        | Routing_graph.Trunk { channel; span } ->
          Density.set_bridge t.dens ~channel ~span ~w:ns.rg.Routing_graph.pitch nb.(id)
        | Routing_graph.Branch _ | Routing_graph.Correspondence _ -> ()
      end);
  ns.bridge <- nb;
  ns.candidates <- non_bridges g nb

(* --- wire-length estimation ---------------------------------------- *)

let hpwl_cap_of_net fp net_id =
  let dims = Floorplan.dims fp in
  let net = Netlist.net (Floorplan.netlist fp) net_id in
  let bbox = Floorplan.net_bbox fp net_id in
  let um = Dims.h_um dims (Rect.width bbox) +. Dims.v_um dims ~rows:(Rect.height bbox) in
  um *. Dims.cap_per_um_at dims ~width:(float_of_int net.Netlist.pitch)

let current_cl t ns =
  match t.opts.cl_estimator with
  | Tentative_tree -> Routing_graph.tree_capacitance ns.rg ~edge_ids:ns.tree
  | Star_bbox -> t.hpwl_cap.(ns.rg.Routing_graph.net_id)

(* Push the net's wiring delay into the timing state under the chosen
   delay model, and re-time its constraints unless [refresh] is false:
   a caller that rebuilds several nets refreshes the STA once at the
   end instead. *)
let apply_net_timing ?(refresh = true) t ns =
  match t.sta with
  | None -> ()
  | Some sta ->
    let net = ns.rg.Routing_graph.net_id in
    let dg = Sta.delay_graph sta in
    (match t.opts.delay_model with
    | Lumped_c -> Delay_graph.set_net_cap dg ~net ~cap_ff:ns.cl_ff
    | Elmore_rc ->
      let netlist = Floorplan.netlist t.fp in
      let r = Elmore.analyze ~dims:(Floorplan.dims t.fp) ~netlist ~rg:ns.rg ~tree:ns.tree () in
      let lookup = Hashtbl.create 8 in
      List.iter (fun (ep, ps) -> Hashtbl.replace lookup ep ps) r.Elmore.delay_ps;
      Delay_graph.set_net_sink_delays dg ~net ~delay_of:(fun ep ->
          Option.value (Hashtbl.find_opt lookup ep) ~default:0.0));
    if refresh then Sta.refresh_for_nets sta [ net ]

let install_tree ns edges =
  ns.tree <- edges;
  let set = Array.make (Ugraph.n_edges_total ns.rg.Routing_graph.graph) false in
  List.iter (fun e -> set.(e) <- true) edges;
  ns.tree_set <- set

let refresh_tree ?refresh t ns =
  match Routing_graph.tentative_tree ns.rg with
  | None ->
    raise
      (Routing_graph.Unroutable
         (Printf.sprintf "net %d lost terminal connectivity" ns.rg.Routing_graph.net_id))
  | Some edges ->
    install_tree ns edges;
    let cl = current_cl t ns in
    (* Under the lumped model an unchanged CL means unchanged weights;
       under Elmore the per-sink split can shift even then, so any tree
       refresh re-applies. *)
    if cl <> ns.cl_ff || t.opts.delay_model = Elmore_rc then begin
      ns.cl_ff <- cl;
      apply_net_timing ?refresh t ns
    end

(* --- per-edge heuristic values -------------------------------------- *)

let ensure_eval ns eid =
  if eid >= Array.length ns.evals then begin
    let bigger = Array.init (max 8 (2 * (eid + 1))) (fun _ -> fresh_eval ()) in
    Array.blit ns.evals 0 bigger 0 (Array.length ns.evals);
    ns.evals <- bigger
  end;
  ns.evals.(eid)

let cl_without t ns eid =
  let ev = ensure_eval ns eid in
  if ev.ev_cl_rev <> ns.rev then begin
    ev.ev_cl_rev <- ns.rev;
    ev.ev_cl_without <-
      (if not (eid < Array.length ns.tree_set && ns.tree_set.(eid)) then ns.cl_ff
       else begin
         match t.opts.cl_estimator with
         | Star_bbox -> ns.cl_ff
         | Tentative_tree -> (
           match Routing_graph.tentative_capacitance ns.rg ~exclude_edge:eid with
           | Some cl -> cl
           | None -> infinity (* cannot happen for non-bridge edges *))
       end)
  end;
  ev.ev_cl_without

(* Penalty function of Eq. 4; the exponent is clamped against overflow
   on grossly violated constraints. *)
let penalty x limit =
  if x >= 0.0 then 1.0 -. (x /. limit) else exp (Float.min 50.0 (-.x /. limit))

let timing_revision t net =
  match t.sta with None -> 0 | Some sta -> Sta.net_timing_revision sta net

let delay_key t ns eid =
  let ev = ensure_eval ns eid in
  let net = ns.rg.Routing_graph.net_id in
  let timing_rev = timing_revision t net in
  if ev.ev_key_timing_rev <> timing_rev || ev.ev_key_net_rev <> ns.rev then begin
    ev.ev_key_timing_rev <- timing_rev;
    ev.ev_key_net_rev <- ns.rev;
    match t.sta with
    | None ->
      ev.ev_cd <- 0;
      ev.ev_gl <- 0.0;
      ev.ev_ld <- 0.0;
      ev.ev_lm_min <- infinity
    | Some sta ->
      let cons = Sta.constraints_of_net sta net in
      if cons = [] then begin
        ev.ev_cd <- 0;
        ev.ev_gl <- 0.0;
        ev.ev_ld <- 0.0;
        ev.ev_lm_min <- infinity
      end
      else begin
        let dg = Sta.delay_graph sta in
        let dag = Delay_graph.dag dg in
        let td = Delay_graph.driver_td dg net in
        let dcl = cl_without t ns eid -. ns.cl_ff in
        let cd = ref 0 and gl = ref 0.0 and ld = ref 0.0 and lm_min = ref infinity in
        let on_constraint ci =
          let pc = Sta.constraint_ sta ci in
          let m = Sta.margin sta ci in
          let lp = Sta.arrival sta ci in
          let worst = ref 0.0 in
          let on_edge de =
            let v, w = Dag.endpoints dag de in
            if lp.(v) > neg_infinity && lp.(w) > neg_infinity then begin
              let d' = Dag.weight dag de +. (dcl *. td) in
              let diff = lp.(v) +. d' -. lp.(w) in
              if diff > !worst then worst := diff;
              ld := !ld +. Float.max 0.0 (dcl *. td)
            end
          in
          List.iter on_edge (Sta.gd_edges_of_net sta ~ci ~net);
          let lm = m -. !worst in
          if lm < !lm_min then lm_min := lm;
          if lm <= 0.0 then incr cd;
          gl := !gl +. penalty lm pc.Path_constraint.limit_ps -. penalty m pc.Path_constraint.limit_ps
        in
        List.iter on_constraint cons;
        (* The comparison chain orders keys with [Float.compare], under
           which NaN would sort below every number. *)
        assert (not (Float.is_nan !gl || Float.is_nan !ld));
        ev.ev_cd <- !cd;
        ev.ev_gl <- !gl;
        ev.ev_ld <- !ld;
        ev.ev_lm_min <- !lm_min
      end
  end;
  ev

let density_key t ns eid =
  let ev = ensure_eval ns eid in
  let channel, span = Routing_graph.density_locus ns.rg eid in
  let rev = Density.revision t.dens ~channel in
  if ev.ev_dens_rev <> rev then begin
    ev.ev_dens_rev <- rev;
    let d_max, nd_max, d_min, nd_min = Density.edge_params t.dens ~channel ~span in
    ev.ev_f_m <- Density.cm t.dens ~channel - d_min;
    ev.ev_n_m <- Density.ncm t.dens ~channel - nd_min;
    ev.ev_f_big <- Density.cM t.dens ~channel - d_max;
    ev.ev_n_big <- Density.ncM t.dens ~channel - nd_max
  end

(* --- candidate comparison (Sec. 3.4) -------------------------------- *)

(* One candidate of a selection round, with its static comparison data.
   Comparisons read only [l_ev], which the round keeps scored. *)
type leaf = {
  l_net : int;
  l_edge : int;
  l_ev : eval;
  l_trunk : bool;
  l_len : float;
  l_channel : int;  (* density locus *)
  l_lo : int;  (* locus span [l_lo, l_hi); 0, 0 when empty *)
  l_hi : int;
}

let compare_delay a b =
  let k1 = a.l_ev and k2 = b.l_ev in
  let c = Int.compare k1.ev_cd k2.ev_cd in
  if c <> 0 then c
  else begin
    let c = Float.compare k1.ev_gl k2.ev_gl in
    if c <> 0 then c else Float.compare k1.ev_ld k2.ev_ld
  end

let compare_cd_only a b = Int.compare a.l_ev.ev_cd b.l_ev.ev_cd

let compare_gl_ld a b =
  let k1 = a.l_ev and k2 = b.l_ev in
  let c = Float.compare k1.ev_gl k2.ev_gl in
  if c <> 0 then c else Float.compare k1.ev_ld k2.ev_ld

let compare_density a b =
  if a.l_trunk && not b.l_trunk then -1
  else if b.l_trunk && not a.l_trunk then 1
  else begin
    let p1 = a.l_ev and p2 = b.l_ev in
    let c = Int.compare p1.ev_f_m p2.ev_f_m in
    if c <> 0 then c
    else begin
      let c = Int.compare p1.ev_n_m p2.ev_n_m in
      if c <> 0 then c
      else begin
        let c = Int.compare p1.ev_f_big p2.ev_f_big in
        if c <> 0 then c else Int.compare p1.ev_n_big p2.ev_n_big
      end
    end
  end

(* Longer edge preferred. *)
let compare_length a b = Float.compare b.l_len a.l_len

(* The two Sec. 3.4 comparison chains, with the criterion names the
   deletions-by-criterion counter reports. *)
let delay_chain =
  [ ("delay", compare_delay); ("density", compare_density); ("length", compare_length) ]

let area_chain =
  [ ("delay_count", compare_cd_only);
    ("density", compare_density);
    ("gl_ld", compare_gl_ld);
    ("length", compare_length) ]

let active_chain t = if t.area_mode then area_chain else delay_chain

let compare_candidates t a b =
  let rec go = function
    | [] ->
      (* deterministic final tie-break on ids *)
      let c = Int.compare a.l_net b.l_net in
      if c <> 0 then c else Int.compare a.l_edge b.l_edge
    | (_, cmp) :: rest ->
      let c = cmp a b in
      if c <> 0 then c else go rest
  in
  go (active_chain t)

(* Name of the first criterion that separates winner [a] from runner-up
   [b], used only to label the deletion counter — never to choose a
   candidate. *)
let criterion_between t a b =
  let rec go = function
    | [] -> "id_tie_break"
    | (name, cmp) :: rest -> if cmp a b <> 0 then name else go rest
  in
  go (active_chain t)

(* A candidate of a mirrored pair is admissible only when its partner
   image is alive and itself deletable. *)
let admissible t n eid =
  let ns = t.nets.(n) in
  if Array.length ns.partner_map = 0 then true
  else begin
    match (Netlist.net (Floorplan.netlist t.fp) n).Netlist.diff_partner with
    | None -> true
    | Some p ->
      let peid = if eid < Array.length ns.partner_map then ns.partner_map.(eid) else -1 in
      let ok =
        peid >= 0
        && Ugraph.is_live t.nets.(p).rg.Routing_graph.graph peid
        && not t.nets.(p).bridge.(peid)
      in
      if (not ok) && observing () then Obs.Metrics.inc m_bridge_rej;
      ok
  end

(* --- incremental selection ------------------------------------------ *)

(* The selection state of one [route_among] call.  Its leaves are the
   candidates of the round's nets when the call starts, in the order a
   linear scan would visit them (nets in order, then ascending edge id).
   Deleting edges never turns a bridge back into a non-bridge, so no
   candidate appears during the call and leaf positions are fixed; a
   dead, bridged or inadmissible leaf is empty in the winner tree.

   After each commit only the leaves whose key or admissibility may
   have moved are re-scored and re-seated.  They are found exactly,
   from three sources:
   - a net whose revision moved: its leaves and its partner's (whose
     admissibility reads this net's edges);
   - a net whose timing revision moved: its leaves;
   - a channel the commit touched: all its leaves when one of the four
     channel aggregates moved, otherwise the leaves whose span meets a
     touched span (their D_M, ND_M, D_m, ND_m may have moved).
   Every other leaf's stamps are unchanged, so its key is still exact. *)
type selection = {
  leaves : leaf array;
  tree : Winner_tree.t;
  round_nets : int array;
  first_leaf : int array;  (* round_nets.(k) owns leaves first_leaf.(k) .. first_leaf.(k+1)-1 *)
  partner_slot : int array;  (* slot k of the diff partner; -1 when none in the round *)
  seen_rev : int array;  (* per slot: net revision at the last re-seat *)
  seen_timing : int array;  (* per slot: timing revision at the last re-seat *)
  channel_leaves : int array array;
  seen_aggregates : (int * int * int * int) array;  (* per channel: C_M, NC_M, C_m, NC_m *)
  pending : int array;  (* leaves to re-seat this round *)
  mutable n_pending : int;
  is_pending : Bytes.t;
}

let aggregates t c =
  (Density.cM t.dens ~channel:c, Density.ncM t.dens ~channel:c, Density.cm t.dens ~channel:c,
   Density.ncm t.dens ~channel:c)

let mark sel i =
  if Bytes.get sel.is_pending i = '\000' then begin
    Bytes.set sel.is_pending i '\001';
    sel.pending.(sel.n_pending) <- i;
    sel.n_pending <- sel.n_pending + 1
  end

let mark_slot sel k =
  for i = sel.first_leaf.(k) to sel.first_leaf.(k + 1) - 1 do
    mark sel i
  done

let leaf_of t n eid =
  let ns = t.nets.(n) in
  let channel, span = Routing_graph.density_locus ns.rg eid in
  let lo, hi = if Interval.is_empty span then (0, 0) else (Interval.lo span, Interval.hi span) in
  { l_net = n;
    l_edge = eid;
    l_ev = ensure_eval ns eid;
    l_trunk = Routing_graph.is_trunk ns.rg eid;
    l_len = (Ugraph.edge ns.rg.Routing_graph.graph eid).Ugraph.weight;
    l_channel = channel;
    l_lo = lo;
    l_hi = hi }

(* Every leaf starts pending: the first round scores them all. *)
let start_selection t net_ids =
  let round_nets = Array.of_list net_ids in
  let leaves =
    Array.of_list
      (List.concat_map (fun n -> List.map (leaf_of t n) t.nets.(n).candidates) net_ids)
  in
  let n_leaves = Array.length leaves in
  let first_leaf = Array.make (Array.length round_nets + 1) 0 in
  Array.iteri
    (fun k n -> first_leaf.(k + 1) <- first_leaf.(k) + List.length t.nets.(n).candidates)
    round_nets;
  let slot = Hashtbl.create (Array.length round_nets) in
  Array.iteri (fun k n -> Hashtbl.replace slot n k) round_nets;
  let netlist = Floorplan.netlist t.fp in
  let partner_slot =
    Array.map
      (fun n ->
        match (Netlist.net netlist n).Netlist.diff_partner with
        | Some p -> Option.value (Hashtbl.find_opt slot p) ~default:(-1)
        | None -> -1)
      round_nets
  in
  let n_channels = Density.n_channels t.dens in
  let per_channel = Array.make n_channels [] in
  for i = n_leaves - 1 downto 0 do
    let c = leaves.(i).l_channel in
    per_channel.(c) <- i :: per_channel.(c)
  done;
  ignore (Density.take_touched t.dens);
  let sel =
    { leaves;
      tree = Winner_tree.create n_leaves;
      round_nets;
      first_leaf;
      partner_slot;
      seen_rev = Array.map (fun n -> t.nets.(n).rev) round_nets;
      seen_timing = Array.map (timing_revision t) round_nets;
      channel_leaves = Array.map Array.of_list per_channel;
      seen_aggregates = Array.init n_channels (aggregates t);
      pending = Array.make n_leaves 0;
      n_pending = 0;
      is_pending = Bytes.make n_leaves '\000' }
  in
  for i = 0 to n_leaves - 1 do
    mark sel i
  done;
  sel

(* Mark the leaves the last commit may have changed (see [selection]). *)
let mark_changes t sel =
  Array.iteri
    (fun k n ->
      let ns = t.nets.(n) in
      if ns.rev <> sel.seen_rev.(k) then begin
        sel.seen_rev.(k) <- ns.rev;
        mark_slot sel k;
        if sel.partner_slot.(k) >= 0 then mark_slot sel sel.partner_slot.(k)
      end;
      let timing_rev = timing_revision t n in
      if timing_rev <> sel.seen_timing.(k) then begin
        sel.seen_timing.(k) <- timing_rev;
        mark_slot sel k
      end)
    sel.round_nets;
  List.iter
    (fun (c, spans) ->
      let in_channel = sel.channel_leaves.(c) in
      if Array.length in_channel > 0 then begin
        let a = aggregates t c in
        if a <> sel.seen_aggregates.(c) then begin
          sel.seen_aggregates.(c) <- a;
          Array.iter (mark sel) in_channel
        end
        else
          Array.iter
            (fun i ->
              let l = sel.leaves.(i) in
              if List.exists (fun s -> l.l_lo < Interval.hi s && Interval.lo s < l.l_hi) spans then
                mark sel i)
            in_channel
      end)
    (Density.take_touched t.dens)

(* Scoring is read-only with respect to everything shared: each
   candidate's values land in its own [eval] record, written by exactly
   one domain, and all values are deterministic functions of the
   routing state.  The only lazily mutated shared caches on the read
   path (the per-channel density aggregates) are warmed on the calling
   domain first.  The tree update that follows compares exactly the
   numbers the sequential engine would have computed — which is the
   determinism argument for the whole parallel engine (see DESIGN.md):
   parallel score, sequential apply, bit-identical result. *)
let score_leaves t sel n =
  let score_one k =
    let l = sel.leaves.(sel.pending.(k)) in
    let ns = t.nets.(l.l_net) in
    ignore (delay_key t ns l.l_edge);
    density_key t ns l.l_edge
  in
  match t.par with
  (* Under ~8 leaves the dispatch overhead outweighs the win. *)
  | Some pool when n >= 8 ->
    for c = 0 to Density.n_channels t.dens - 1 do
      ignore (aggregates t c)
    done;
    Par.parallel_iter pool score_one n
  | Some _ | None ->
    for k = 0 to n - 1 do
      score_one k
    done

(* One selection round: re-seat the pending leaves, then read the
   winner off the root, with the criterion label for the deletion
   counter and the quality log.  The label is wanted only when
   observability or quality recording is on; the runner-up it needs is
   the best sibling winner along the winner's root path, pure reads of
   scored keys, so turning either consumer on leaves the deletion hash
   unchanged.  The label is "" when nobody reads it. *)
let select_among t sel =
  let t0 = if observing () then Obs.now_s () else 0.0 in
  (* The occupied pending leaves are packed to the front of [pending]
     for scoring. *)
  let n_score = ref 0 in
  for k = 0 to sel.n_pending - 1 do
    let i = sel.pending.(k) in
    Bytes.set sel.is_pending i '\000';
    let l = sel.leaves.(i) in
    let ns = t.nets.(l.l_net) in
    let occupied =
      Ugraph.is_live ns.rg.Routing_graph.graph l.l_edge
      && (not ns.bridge.(l.l_edge))
      && admissible t l.l_net l.l_edge
    in
    Winner_tree.set sel.tree i ~occupied;
    if occupied then begin
      sel.pending.(!n_score) <- i;
      incr n_score
    end
  done;
  sel.n_pending <- 0;
  score_leaves t sel !n_score;
  let cmp i j = compare_candidates t sel.leaves.(i) sel.leaves.(j) in
  ignore (Winner_tree.update sel.tree ~cmp);
  let chosen =
    match Winner_tree.winner sel.tree with
    | -1 -> None
    | w ->
      let best = sel.leaves.(w) in
      let crit =
        if not (observing () || quality_on t) then ""
        else begin
          match Winner_tree.runner_up sel.tree ~cmp with
          | -1 -> "only_candidate"
          | s -> criterion_between t best sel.leaves.(s)
        end
      in
      Some ((best.l_net, best.l_edge), crit)
  in
  if observing () then Obs.Metrics.observe m_batch (Obs.now_s () -. t0);
  chosen

(* --- deletion with cascade ------------------------------------------ *)

let mix_hash h v = ((h * 1000003) + v) land max_int

let record_deletion t n eid = t.del_hash <- mix_hash (mix_hash t.del_hash n) eid

let rec delete_cascade t n eid ~mirror =
  let ns = t.nets.(n) in
  let g = ns.rg.Routing_graph.graph in
  assert (Ugraph.is_live g eid && not ns.bridge.(eid));
  let touched_tree = ref (eid < Array.length ns.tree_set && ns.tree_set.(eid)) in
  unregister_edge_density t ns (Ugraph.edge g eid);
  Ugraph.delete_edge g eid;
  t.deletions <- t.deletions + 1;
  record_deletion t n eid;
  Routing_graph.prune_dangling ns.rg ~on_delete:(fun e ->
      unregister_edge_density t ns e;
      t.deletions <- t.deletions + 1;
      record_deletion t n e.Ugraph.id;
      if e.Ugraph.id < Array.length ns.tree_set && ns.tree_set.(e.Ugraph.id) then
        touched_tree := true);
  refresh_bridges t ns;
  ns.rev <- ns.rev + 1;
  if !touched_tree then refresh_tree t ns;
  if mirror && Array.length ns.partner_map > 0 then begin
    match (Netlist.net (Floorplan.netlist t.fp) n).Netlist.diff_partner with
    | None -> ()
    | Some p ->
      let peid = if eid < Array.length ns.partner_map then ns.partner_map.(eid) else -1 in
      let pns = t.nets.(p) in
      if peid >= 0 && Ugraph.is_live pns.rg.Routing_graph.graph peid then begin
        if pns.bridge.(peid) then begin
          (* Homology broke (should not happen under mirrored
             deletions); fall back to independent routing. *)
          ns.partner_map <- [||];
          pns.partner_map <- [||];
          Obs.warn "pair %d/%d: homology lost, falling back to independent routing" n p
        end
        else delete_cascade t p peid ~mirror:false
      end
  end

(* A *committed* deletion — one the selection loop chose — goes through
   the write-ahead hook first, so the journal record is durable before
   any state changes.  Cascaded prunes and the mirrored partner
   deletion are deterministic consequences of the primary deletion and
   are regenerated on replay, which is why a mirrored pair costs one
   journal record, not two. *)
let commit_deletion t n eid =
  (match t.on_commit with
  | None -> ()
  | Some hook ->
    hook
      { dc_phase = t.cur_phase;
        dc_area_mode = t.area_mode;
        dc_net = n;
        dc_edge = eid;
        dc_deletions_before = t.deletions;
        dc_hash_before = t.del_hash });
  delete_cascade t n eid ~mirror:true

(* Replay entry for the journal: apply a recorded primary deletion
   without re-journaling it.  Validates instead of asserting — a
   corrupt (but CRC-clean) record must surface as a structured error,
   not a crash. *)
let apply_deletion t ~net ~edge =
  if net < 0 || net >= Array.length t.nets then
    Bgr_error.raise_error ~phase:"resume" Bgr_error.Internal "journal replay: unknown net %d" net;
  let ns = t.nets.(net) in
  let g = ns.rg.Routing_graph.graph in
  if edge < 0 || edge >= Ugraph.n_edges_total g || not (Ugraph.is_live g edge) || ns.bridge.(edge)
  then
    Bgr_error.raise_error ~phase:"resume" Bgr_error.Internal
      "journal replay: edge %d of net %d is not a deletable candidate" edge net;
  delete_cascade t net edge ~mirror:true

(* --- construction ---------------------------------------------------- *)

(* Graph-only part of a net state (no density/timing side effects). *)
let fresh_net_state ?jog_cost fp assignment net_id =
  let rg = Routing_graph.build ?jog_cost fp assignment ~net:net_id in
  Routing_graph.prune_dangling rg ~on_delete:(fun _ -> ());
  let bridge = Bridges.bridges rg.Routing_graph.graph in
  { rg;
    bridge;
    candidates = non_bridges rg.Routing_graph.graph bridge;
    tree = [];
    tree_set = [||];
    cl_ff = -1.0;
    rev = 0;
    evals = Array.init (Ugraph.n_edges_total rg.Routing_graph.graph) (fun _ -> fresh_eval ());
    partner_map = [||] }

let jog_cost_of t channel = t.jog_um.(channel)

(* Callers refresh the STA for the rebuilt nets. *)
let install_net_state t ns =
  register_net_density t ns;
  refresh_tree ~refresh:false t ns

let init_net_state t net_id =
  let ns = fresh_net_state ~jog_cost:(jog_cost_of t) t.fp t.assignment net_id in
  t.nets.(net_id) <- ns;
  install_net_state t ns

let recognize_pair t n p =
  let ns = t.nets.(n) and pns = t.nets.(p) in
  match Diff_pair.recognize ns.rg pns.rg with
  | None ->
    ns.partner_map <- [||];
    pns.partner_map <- [||]
  | Some emap ->
    ns.partner_map <- emap;
    let rev = Array.make (Ugraph.n_edges_total pns.rg.Routing_graph.graph) (-1) in
    Array.iteri (fun ea eb -> if eb >= 0 then rev.(eb) <- ea) emap;
    pns.partner_map <- rev

(* Recognize every differential pair, then refresh the timing state. *)
let recognize_all_pairs t =
  let netlist = Floorplan.netlist t.fp in
  for net = 0 to Array.length t.nets - 1 do
    match (Netlist.net netlist net).Netlist.diff_partner with
    | Some p when p > net -> recognize_pair t net p
    | Some _ | None -> ()
  done;
  match t.sta with Some sta -> Sta.refresh sta | None -> ()

(* Rebuild every net's candidate graph from scratch (density and
   tentative tree included), recognize the differential pairs again and
   refresh the timing state. *)
let reinit_all_nets t =
  Array.iter (fun ns -> unregister_net_density t ns) t.nets;
  for net = 0 to Array.length t.nets - 1 do
    init_net_state t net
  done;
  recognize_all_pairs t

(* Expected in-channel jog per connection point: the expected final
   channel depth is roughly half the candidate-graph density (about half
   of all candidate trunks get deleted), and a pin's expected descent is
   half of that again.  The density is taken over zero-jog candidate
   graphs.  Only [C_M] is read, and [d_M] counts every live trunk
   whether or not it is a bridge, so the pass builds the graphs alone:
   no bridges, candidate lists or per-edge evaluation records.  All
   graphs are built before any is counted: counting each as it was built
   measured a higher peak resident set over the whole route (the major
   heap grows less here and then more during routing and metrology). *)
let jog_estimate fp assignment =
  let n_channels = Floorplan.n_channels fp in
  let dens = Density.create ~n_channels ~width:(Floorplan.width fp) in
  let graphs =
    Array.init (Netlist.n_nets (Floorplan.netlist fp)) (fun net ->
        let rg = Routing_graph.build fp assignment ~net in
        Routing_graph.prune_dangling rg ~on_delete:(fun _ -> ());
        rg)
  in
  Array.iter
    (fun rg ->
      Ugraph.iter_edges rg.Routing_graph.graph (fun e ->
          match Routing_graph.edge_kind rg e.Ugraph.id with
          | Routing_graph.Trunk { channel; span } ->
            Density.add_trunk dens ~channel ~span ~w:rg.Routing_graph.pitch ~bridge:false
          | Routing_graph.Branch _ | Routing_graph.Correspondence _ -> ()))
    graphs;
  Array.init n_channels (fun c ->
      0.25 *. float_of_int (Density.cM dens ~channel:c) *. (Floorplan.dims fp).Dims.track_um)

let create ?(options = default_options) fp assignment sta =
  let netlist = Floorplan.netlist fp in
  let n_nets = Netlist.n_nets netlist in
  (* [domains = 0] means auto (BGR_DOMAINS or the available cores);
     [<= 1] selects the strictly sequential engine.  A router built
     inside a pool worker (a parallel suite run) scores sequentially
     too, instead of nesting pools. *)
  let requested =
    if options.domains = 0 then Par.default_domains () else max 1 options.domains
  in
  let par =
    if requested <= 1 || Par.in_worker () then None else Some (Par.get ~domains:requested ())
  in
  let t =
    { fp;
      assignment;
      sta;
      dens = Density.create ~n_channels:(Floorplan.n_channels fp) ~width:(Floorplan.width fp);
      nets = [||];
      opts = options;
      hpwl_cap = Array.init n_nets (fun net -> hpwl_cap_of_net fp net);
      jog_um = jog_estimate fp assignment;
      deletions = 0;
      del_hash = 0;
      area_mode = options.area_first_ordering;
      par;
      cur_phase = "initial_route";
      on_commit = None;
      on_checkpoint = None;
      on_quality = None;
      q_crit = Hashtbl.create 8;
      q_unsampled = 0 }
  in
  (* Every routing graph is built with the jog surcharge priced into its
     correspondence and branch edge weights. *)
  t.nets <- Array.init n_nets (fun net -> fresh_net_state ~jog_cost:(jog_cost_of t) fp assignment net);
  Array.iter (install_net_state t) t.nets;
  recognize_all_pairs t;
  t

(* --- phases ----------------------------------------------------------- *)

let all_net_ids t = List.init (Array.length t.nets) Fun.id

let route_among t net_ids =
  let sel = start_selection t net_ids in
  let rec loop () =
    match select_among t sel with
    | None -> ()
    | Some ((n, eid), crit) ->
      let before = t.deletions in
      (* LM(e,P) as the selection saw it: the commit bumps the net's
         revision, after which delay_key would recompute it. *)
      let lm = if observing () then (delay_key t t.nets.(n) eid).ev_lm_min else infinity in
      commit_deletion t n eid;
      mark_changes t sel;
      (* Everything that observes the commit; none of it steers the
         routing. *)
      if observing () then begin
        if lm < infinity then Obs.Metrics.observe m_lm lm;
        Obs.Metrics.inc m_deletions ~labels:[ ("criterion", crit); ("phase", t.cur_phase) ];
        let cascade = t.deletions - before - 1 in
        if cascade > 0 then
          Obs.Metrics.inc m_cascade ~labels:[ ("phase", t.cur_phase) ]
            ~by:(float_of_int cascade)
      end;
      Flight.record Flight.k_deletion ~a:(Flight.phase_code t.cur_phase)
        ~b:(Flight.criterion_code crit) ~c:n
        ~d:((eid lsl 32) lor (before land 0xFFFFFFFF));
      if quality_on t then note_quality_deletion t crit;
      loop ()
  in
  loop ()

let initial_route t =
  t.cur_phase <- "initial_route";
  route_among t (all_net_ids t)

(* Delete the net's non-bridge edges outside [keep] until none is left,
   [mirror]ing each deletion onto a recognized partner. *)
let delete_outside t n ~keep ~mirror =
  let ns = t.nets.(n) in
  let in_keep = Hashtbl.create 32 in
  List.iter (fun eid -> Hashtbl.replace in_keep eid ()) keep;
  let rec loop () =
    match List.find_opt (fun eid -> not (Hashtbl.mem in_keep eid)) ns.candidates with
    | Some eid ->
      delete_cascade t n eid ~mirror;
      loop ()
    | None -> ()
  in
  loop ()

(* --- sequential baseline (net-at-a-time, congestion-priced) --------- *)

let route_sequential ?(congestion_weight = 0.5) ?order t =
  let order = match order with Some o -> o | None -> all_net_ids t in
  let track_um = (Floorplan.dims t.fp).Dims.track_um in
  let congestion_cost ns (e : Ugraph.edge) =
    match Routing_graph.edge_kind ns.rg e.Ugraph.id with
    | Routing_graph.Trunk { channel; span } ->
      let d_max, _, _, _ = Density.edge_params t.dens ~channel ~span in
      e.Ugraph.weight +. (congestion_weight *. track_um *. float_of_int d_max)
    | Routing_graph.Branch _ | Routing_graph.Correspondence _ -> e.Ugraph.weight
  in
  let netlist = Floorplan.netlist t.fp in
  let routed = Array.make (Array.length t.nets) false in
  let route_one n =
    if not routed.(n) then begin
      let ns = t.nets.(n) in
      match Routing_graph.tentative_tree ~cost:(congestion_cost ns) ns.rg with
      | None -> () (* cannot happen: the candidate graph is connected *)
      | Some wanted ->
        routed.(n) <- true;
        (match (Netlist.net netlist n).Netlist.diff_partner with
        | Some p -> routed.(p) <- true
        | None -> ());
        delete_outside t n ~keep:wanted ~mirror:true;
        (* Mirroring may leave deletable leftovers in an unrecognized
           partner or in this net; fall back to plain edge deletion so
           both end as trees. *)
        let members =
          match (Netlist.net netlist n).Netlist.diff_partner with
          | Some p -> [ n; p ]
          | None -> [ n ]
        in
        route_among t members
    end
  in
  List.iter route_one order

let is_routed t = Array.for_all (fun ns -> ns.candidates = []) t.nets

let reroute_net t n =
  let netlist = Floorplan.netlist t.fp in
  let members =
    match (Netlist.net netlist n).Netlist.diff_partner with
    | Some p -> [ min n p; max n p ]
    | None -> [ n ]
  in
  List.iter (fun m -> unregister_net_density t t.nets.(m)) members;
  List.iter (fun m -> init_net_state t m) members;
  (match members with
  | [ a; b ] -> recognize_pair t a b
  | [ _ ] -> ()
  | _ -> assert false);
  (match t.sta with Some sta -> Sta.refresh_for_nets sta members | None -> ());
  route_among t members

(* The rip-up-and-reroute loop of every Sec. 3.5 improvement phase.
   Before each of at most [limit] passes (capped by [max_passes]) it
   calls [guard], which may raise to abandon the phase.  [plan reroute]
   then returns the pass's extra span attributes and its work, or
   [None] to stop without counting a pass.  The work runs in a
   "pass:<name>" span and rips nets up through [reroute]; the phase goes
   on while [improved] holds of the [measure]s taken around the pass.
   The criterion ordering [area_mode] is in force for the phase, and the
   previous ordering is restored on every exit. *)
let improvement_passes t ~name ~area_mode ~limit ?(guard = fun () -> ()) ?max_passes ~measure
    ~improved plan =
  let limit = min limit (Option.value max_passes ~default:max_int) in
  let saved_mode = t.area_mode in
  set_area_mode t area_mode;
  let reroutes = ref 0 and passes = ref 0 in
  let reroute n =
    reroute_net t n;
    incr reroutes
  in
  let rec loop () =
    if !passes < limit then begin
      guard ();
      match plan reroute with
      | None -> ()
      | Some (attrs, work) ->
        incr passes;
        let before = measure () in
        Obs.Trace.span ("pass:" ^ name) ~attrs:(("pass", Obs.Trace.Int !passes) :: attrs) work;
        let after = measure () in
        emit_quality t ~kind:Q_pass ~phase:t.cur_phase ~pass:!passes;
        if improved ~before ~after then loop ()
    end
  in
  Fun.protect ~finally:(fun () -> set_area_mode t saved_mode) loop;
  { reroutes = !reroutes; passes = !passes }

let no_timing = { reroutes = 0; passes = 0 }

(* The recovery phase always weighs delay first, whatever ordering the
   initial routing used (Sec. 3.5 reserves the density-first ordering
   for the area phase). *)
let recover_violations ?guard ?max_passes t =
  match t.sta with
  | None -> no_timing
  | Some sta ->
    improvement_passes t ~name:"recover_violations" ~area_mode:false
      ~limit:t.opts.max_recover_passes ?guard ?max_passes
      ~measure:(fun () -> Sta.worst_path_delay sta)
      ~improved:(fun ~before ~after -> after < before -. 1e-6 || Sta.violations sta = [])
      (fun reroute ->
        match Sta.violations sta with
        | [] -> None
        | violated ->
          let on_constraint ci =
            List.iter
              (fun n -> if Sta.margin sta ci < 0.0 then reroute n)
              (List.sort_uniq Int.compare (Sta.critical_nets sta ci))
          in
          Some ([], fun () -> List.iter on_constraint violated))

let improve_delay ?guard ?max_passes t =
  match t.sta with
  | None -> no_timing
  | Some sta ->
    improvement_passes t ~name:"improve_delay" ~area_mode:false ~limit:t.opts.max_delay_passes
      ?guard ?max_passes
      ~measure:(fun () -> Sta.worst_path_delay sta)
      ~improved:(fun ~before ~after -> after < before -. 1e-6)
      (fun reroute ->
        (* Constraints by ascending margin; their critical nets first. *)
        let order =
          List.init (Sta.n_constraints sta) Fun.id
          |> List.stable_sort (fun a b -> Float.compare (Sta.margin sta a) (Sta.margin sta b))
        in
        let seen = Hashtbl.create 64 in
        let on_constraint ci =
          List.iter
            (fun n ->
              if not (Hashtbl.mem seen n) then begin
                Hashtbl.replace seen n ();
                reroute n
              end)
            (Sta.critical_nets sta ci)
        in
        Some ([], fun () -> List.iter on_constraint order))

let total_tracks t = Array.fold_left ( + ) 0 (Density.tracks_estimate t.dens)

(* Nets with a trunk covering a maximum-density column of the most
   congested channel. *)
let congested_nets t =
  let worst_channel = ref 0 and worst = ref (-1) in
  for c = 0 to Density.n_channels t.dens - 1 do
    let v = Density.cM t.dens ~channel:c in
    if v > !worst then begin
      worst := v;
      worst_channel := c
    end
  done;
  let c = !worst_channel in
  let peak = !worst in
  let hot x = Density.dM_at t.dens ~channel:c ~x = peak in
  let result = ref [] in
  Array.iteri
    (fun n ns ->
      let covers_hot = ref false in
      Ugraph.iter_edges ns.rg.Routing_graph.graph (fun e ->
          match Routing_graph.edge_kind ns.rg e.Ugraph.id with
          | Routing_graph.Trunk { channel; span } when channel = c ->
            Interval.iter (fun x -> if hot x then covers_hot := true) span
          | Routing_graph.Trunk _ | Routing_graph.Branch _ | Routing_graph.Correspondence _ -> ())
        ;
      if !covers_hot then result := n :: !result)
    t.nets;
  List.rev !result

let improve_area ?guard ?max_passes t =
  improvement_passes t ~name:"improve_area" ~area_mode:true ~limit:t.opts.max_area_passes ?guard
    ?max_passes
    ~measure:(fun () -> total_tracks t)
    ~improved:(fun ~before ~after -> after < before)
    (fun reroute ->
      let nets = congested_nets t in
      Some ([ ("nets", Obs.Trace.Int (List.length nets)) ], fun () -> List.iter reroute nets))

(* --- checkpoints and the deadline-aware driver ----------------------- *)

type stop_reason =
  | Finished
  | Deadline of { phase : string }
  | Fault_stop of { phase : string; error : Bgr_error.t }

type run_report = {
  completed_phases : string list;
  stopped_because : stop_reason;
  rolled_back : bool;
}

let stop_reason_string = function
  | Finished -> "finished"
  | Deadline { phase } -> Printf.sprintf "deadline during %s" phase
  | Fault_stop { phase; _ } -> Printf.sprintf "injected fault during %s" phase

exception Stop_run of stop_reason

let checkpoint t =
  { ck_deletions = t.deletions;
    ck_del_hash = t.del_hash;
    ck_live =
      Array.map
        (fun ns ->
          List.map (fun (e : Ugraph.edge) -> e.Ugraph.id)
            (Ugraph.live_edges ns.rg.Routing_graph.graph))
        t.nets }

let checkpoint_make ~deletions ~del_hash ~live =
  { ck_deletions = deletions; ck_del_hash = del_hash; ck_live = Array.copy live }

let checkpoint_stats ck = (ck.ck_deletions, ck.ck_del_hash)
let checkpoint_live ck = Array.copy ck.ck_live

(* Bring every net back to the checkpointed state, following the proven
   reroute pattern: rebuild the full candidate graph, then delete
   everything outside the recorded live set.  The deletion counters are
   then rewound to the checkpoint's, so a restored run continues the
   same deletion-hash chain as the run the checkpoint was taken from.
   No-op when the state already matches the checkpoint. *)
let restore t ck =
  if t.deletions <> ck.ck_deletions || t.del_hash <> ck.ck_del_hash then begin
    reinit_all_nets t;
    Array.iteri (fun n keep -> delete_outside t n ~keep ~mirror:false) ck.ck_live;
    t.deletions <- ck.ck_deletions;
    t.del_hash <- ck.ck_del_hash
  end

(* Phase wrapper: a "phase:<name>" trace span plus the duration gauge
   (last execution) and the cumulative per-phase counter.  The gauge is
   set even when the phase aborts (deadline, fault): the time was spent
   either way. *)
let timed_phase phase f =
  if not (observing ()) then f ()
  else begin
    let t0 = Obs.now_s () in
    Fun.protect
      ~finally:(fun () ->
        let d = Obs.now_s () -. t0 in
        Obs.Metrics.set m_phase_dur ~labels:[ ("phase", phase) ] d;
        Obs.Metrics.inc m_phase_total ~labels:[ ("phase", phase) ] ~by:d)
      (fun () -> Obs.Trace.span ("phase:" ^ phase) f)
  end

let run ?(budget = Budget.unlimited) ?(completed = []) t =
  let already_done = completed in
  let skip phase = List.mem phase already_done in
  let completed = ref (List.rev already_done) in
  (* On a resume the current state *is* the last durable checkpoint, so
     a mid-phase stop in the continued run rolls back to it. *)
  let last_ck = ref (match already_done with [] -> None | _ :: _ -> Some (checkpoint t)) in
  let rolled_back = ref false in
  let mark phase =
    completed := phase :: !completed;
    Flight.record Flight.k_phase ~a:(Flight.phase_code phase) ~b:1 ~c:0 ~d:t.deletions;
    emit_quality t ~kind:Q_phase ~phase ~pass:0;
    let ck = checkpoint t in
    last_ck := Some ck;
    match t.on_checkpoint with
    | None -> ()
    | Some hook -> hook ~phase ~completed:(List.rev !completed) ck
  in
  let guard ~phase () =
    if observing () then (
      match Budget.remaining_ms budget with
      | Some ms -> Obs.Metrics.set m_headroom ms
      | None -> ());
    if Fault.trip "router.improve" then
      raise
        (Stop_run
           (Fault_stop
              { phase;
                error = Bgr_error.make ~phase Bgr_error.Fault "injected fault at site router.improve"
              }));
    if Budget.expired budget then raise (Stop_run (Deadline { phase }))
  in
  let stopped_because =
    try
      (* The initial routing always runs to completion: it is what
         guarantees a verifiable spanning tree for every net, so the
         budget is only consulted from the first checkpoint on. *)
      if not (skip "initial_route") then begin
        Flight.record Flight.k_phase ~a:(Flight.phase_code "initial_route") ~b:0 ~c:0
          ~d:t.deletions;
        timed_phase "initial_route" (fun () -> initial_route t);
        mark "initial_route"
      end;
      let limit d = Budget.phase_pass_limit budget ~default:d in
      let improvement phase default_limit
          (f : ?guard:(unit -> unit) -> ?max_passes:int -> t -> phase_report) =
        if not (skip phase) then begin
          t.cur_phase <- phase;
          Flight.record Flight.k_phase ~a:(Flight.phase_code phase) ~b:0 ~c:0 ~d:t.deletions;
          guard ~phase ();
          timed_phase phase (fun () ->
              let r = f ~guard:(guard ~phase) ~max_passes:(limit default_limit) t in
              Obs.Trace.add_attr "reroutes" (Obs.Trace.Int r.reroutes);
              Obs.Trace.add_attr "passes" (Obs.Trace.Int r.passes));
          mark phase
        end
      in
      improvement "recover_violations" t.opts.max_recover_passes recover_violations;
      improvement "improve_delay" t.opts.max_delay_passes improve_delay;
      improvement "improve_area" t.opts.max_area_passes improve_area;
      (* The area phase may lengthen critical nets inside still-met
         constraints; a final timing cleanup (an extra turn of the
         Sec. 3.5 rip-up loops) undoes that at negligible area cost. *)
      (match t.sta with
      | None -> ()
      | Some _ ->
        improvement "final_recovery" t.opts.max_recover_passes recover_violations;
        improvement "final_delay" t.opts.max_delay_passes improve_delay);
      Finished
    with Stop_run reason ->
      (match reason with
      | Deadline { phase } ->
        Flight.record Flight.k_stop ~a:(Flight.phase_code phase) ~b:1 ~c:0 ~d:t.deletions
      | Fault_stop { phase; _ } ->
        Flight.record Flight.k_stop ~a:(Flight.phase_code phase) ~b:2 ~c:0 ~d:t.deletions
      | Finished -> ());
      (match !last_ck with
      | Some ck when t.deletions <> ck.ck_deletions ->
        if observing () then Obs.Metrics.inc m_rollbacks;
        restore t ck;
        rolled_back := true
      | Some _ | None -> ());
      reason
  in
  { completed_phases = List.rev !completed; stopped_because; rolled_back = !rolled_back }

(* --- results ----------------------------------------------------------- *)

let tree_edges t n = t.nets.(n).tree
let routing_graph t n = t.nets.(n).rg

let net_length_um t n =
  let ns = t.nets.(n) in
  Routing_graph.geometric_length_um ns.rg ~edge_ids:ns.tree

let total_length_mm t =
  let total = ref 0.0 in
  Array.iteri (fun n _ -> total := !total +. net_length_um t n) t.nets;
  Dims.mm_of_um !total

let wire_caps t = Array.map (fun ns -> ns.cl_ff) t.nets

(* --- audit/repair access --------------------------------------------- *)

let mirrored t n = Array.length t.nets.(n).partner_map > 0
let partner_map_copy t n = Array.copy t.nets.(n).partner_map

let drop_pair_recognition t n =
  t.nets.(n).partner_map <- [||];
  match (Netlist.net (Floorplan.netlist t.fp) n).Netlist.diff_partner with
  | Some p -> t.nets.(p).partner_map <- [||]
  | None -> ()

(* Rebuild every piece of derived state — bridge sets, candidate lists,
   density charts, tentative trees, wire caps and timing weights — from
   the primal live graphs, which are the only source of truth after a
   resume or a detected corruption.  Primal damage (a disconnected net)
   is left alone: there is nothing to rebuild it from. *)
let rebuild_derived t =
  Density.clear t.dens;
  Array.iter
    (fun ns ->
      let g = ns.rg.Routing_graph.graph in
      ns.bridge <- Bridges.bridges g;
      ns.candidates <- non_bridges g ns.bridge;
      ns.rev <- ns.rev + 1;
      register_net_density t ns)
    t.nets;
  Array.iter
    (fun ns ->
      match Routing_graph.tentative_tree ns.rg with
      | None -> ()
      | Some edges ->
        install_tree ns edges;
        ns.cl_ff <- current_cl t ns;
        apply_net_timing ~refresh:false t ns)
    t.nets;
  match t.sta with Some sta -> Sta.refresh sta | None -> ()

type chan_pin = { cp_x : int; cp_from_top : bool }

type chan_net = {
  cn_net : int;
  cn_lo : int;
  cn_hi : int;
  cn_pins : chan_pin list;
  cn_pitch : int;
}

(* One pass over the nets fills every channel: per net, the channels its
   tree touches accumulate their span and pins in tree-edge order, then
   each is appended to its channel's list, so every list comes out in
   net order. *)
let channel_nets t =
  let netlist = Floorplan.netlist t.fp in
  let n_channels = Floorplan.n_channels t.fp in
  let out = Array.make n_channels [] in
  let lo = Array.make n_channels max_int and hi = Array.make n_channels min_int in
  let pins = Array.make n_channels [] and seen = Array.make n_channels false in
  let touched = ref [] in
  let visit c =
    if not seen.(c) then begin
      seen.(c) <- true;
      touched := c :: !touched
    end
  in
  let touch c x =
    visit c;
    if x < lo.(c) then lo.(c) <- x;
    if x > hi.(c) then hi.(c) <- x
  in
  let add_pin c x from_top =
    if c >= 0 && c < n_channels then begin
      touch c x;
      pins.(c) <- { cp_x = x; cp_from_top = from_top } :: pins.(c)
    end
  in
  let on_net n ns =
    let on_edge eid =
      match Routing_graph.edge_kind ns.rg eid with
      | Routing_graph.Trunk { channel = c; span } when c >= 0 && c < n_channels ->
        touch c (Interval.lo span);
        touch c (Interval.hi span)
      | Routing_graph.Branch { row; x } ->
        (* Row r sits above channel r: its feedthrough enters channel r
           from the top, channel r+1 from the bottom. *)
        add_pin row x true;
        add_pin (row + 1) x false
      | Routing_graph.Correspondence p -> begin
        (* Find which terminal this correspondence serves. *)
        let c = p.Routing_graph.channel in
        let e = Ugraph.edge ns.rg.Routing_graph.graph eid in
        let term_vertex =
          match ns.rg.Routing_graph.vkind.(e.Ugraph.u) with
          | Routing_graph.Terminal _ -> e.Ugraph.u
          | Routing_graph.Position _ -> e.Ugraph.v
        in
        match ns.rg.Routing_graph.vkind.(term_vertex) with
        | Routing_graph.Terminal (Netlist.Pin pin) ->
          let row = Floorplan.terminal_row t.fp pin in
          add_pin c p.Routing_graph.x (row = c)
        | Routing_graph.Terminal (Netlist.Port q) ->
          let from_top =
            match (Netlist.port netlist q).Netlist.side with
            | Netlist.North -> true
            | Netlist.South -> false
          in
          add_pin c p.Routing_graph.x from_top
        | Routing_graph.Position _ -> assert false
      end
      | Routing_graph.Trunk _ -> ()
    in
    List.iter on_edge ns.tree;
    List.iter
      (fun c ->
        if pins.(c) <> [] || lo.(c) <= hi.(c) then
          out.(c) <-
            { cn_net = n;
              cn_lo = lo.(c);
              cn_hi = hi.(c);
              cn_pins = List.rev pins.(c);
              cn_pitch = ns.rg.Routing_graph.pitch }
            :: out.(c);
        lo.(c) <- max_int;
        hi.(c) <- min_int;
        pins.(c) <- [];
        seen.(c) <- false)
      !touched;
    touched := []
  in
  Array.iteri on_net t.nets;
  Array.map List.rev out
