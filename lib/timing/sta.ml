exception Unknown_node of string

type con_state = {
  mutable pc : Path_constraint.t;
  src_vertices : (int * float) list;  (* with launch offsets *)
  sink_vertices : int list;
  mask : bool array;  (* membership in G_d(P) *)
  mutable arrival : float array;
  mutable crit_delay : float;
}

type t = {
  dg : Delay_graph.t;
  cons : con_state array;
  net_constraints : int list array;  (* per net: P(e) *)
  gd_net_edges : (int * int, int list) Hashtbl.t;  (* (ci, net) -> masked edge ids *)
  con_nets : (int * int array) array array;
      (* per constraint: each net with masked edges, with those edges'
         endpoint vertices *)
  net_of_driver : int array;  (* per vertex: driven net id or -1 *)
  net_rev : int array;  (* per net: timing revision *)
}

let resolve dg node =
  match Delay_graph.vertex dg node with
  | v -> v
  | exception Not_found ->
    raise (Unknown_node (Format.asprintf "%a" (Delay_graph.pp_node dg) node))

let compute_con dg cs =
  let dag = Delay_graph.dag dg in
  cs.arrival <- Dag.longest_from dag ~sources:cs.src_vertices;
  let best = ref neg_infinity in
  List.iter (fun s -> if cs.arrival.(s) > !best then best := cs.arrival.(s)) cs.sink_vertices;
  cs.crit_delay <- !best

let create dg pcs =
  let dag = Delay_graph.dag dg in
  let make_con pc =
    let src_vertices =
      List.map
        (fun n ->
          let v = resolve dg n in
          (v, Delay_graph.launch_offset dg v))
        pc.Path_constraint.sources
    in
    let sink_vertices = List.map (resolve dg) pc.Path_constraint.sinks in
    let fwd = Dag.reachable_from dag (List.map fst src_vertices) in
    let bwd = Dag.coreachable_to dag sink_vertices in
    let mask = Array.mapi (fun i f -> f && bwd.(i)) fwd in
    let cs =
      { pc; src_vertices; sink_vertices; mask; arrival = [||]; crit_delay = neg_infinity }
    in
    compute_con dg cs;
    cs
  in
  let cons = Array.of_list (List.map make_con pcs) in
  let netlist = Delay_graph.netlist dg in
  let n_nets = Netlist.n_nets netlist in
  let net_constraints = Array.make n_nets [] in
  let gd_net_edges = Hashtbl.create 256 in
  let con_nets = Array.make (Array.length cons) [] in
  for net = 0 to n_nets - 1 do
    let edges = Delay_graph.edges_of_net dg net in
    Array.iteri
      (fun ci cs ->
        let masked =
          List.filter
            (fun e ->
              let src, dst = Dag.endpoints dag e in
              cs.mask.(src) && cs.mask.(dst))
            edges
        in
        if masked <> [] then begin
          Hashtbl.replace gd_net_edges (ci, net) masked;
          let ends =
            List.concat_map
              (fun e ->
                let v, w = Dag.endpoints dag e in
                [ v; w ])
              masked
          in
          con_nets.(ci) <- (net, Array.of_list (List.sort_uniq Int.compare ends)) :: con_nets.(ci);
          net_constraints.(net) <- ci :: net_constraints.(net)
        end)
      cons;
    net_constraints.(net) <- List.rev net_constraints.(net)
  done;
  let con_nets = Array.map (fun l -> Array.of_list (List.rev l)) con_nets in
  let net_of_driver = Array.make (Delay_graph.n_vertices dg) (-1) in
  for net = 0 to n_nets - 1 do
    net_of_driver.(Delay_graph.driver_vertex dg net) <- net
  done;
  { dg;
    cons;
    net_constraints;
    gd_net_edges;
    con_nets;
    net_of_driver;
    net_rev = Array.make n_nets 0 }

let delay_graph t = t.dg
let n_constraints t = Array.length t.cons
let constraint_ t ci = t.cons.(ci).pc
let net_timing_revision t net = t.net_rev.(net)
let bump t net = t.net_rev.(net) <- t.net_rev.(net) + 1

(* Bit-identical for every float the STA produces: equal, and for zeros
   of the same sign.  A NaN never equals itself, so it counts as
   moved. *)
let same_float (a : float) (b : float) = a = b && (a <> 0.0 || 1.0 /. a = 1.0 /. b)

(* Recompute one constraint and bump exactly the nets whose timing view
   of it moved: all of its nets when the critical delay (hence the
   margin) changed, otherwise those with a masked edge endpoint whose
   arrival changed. *)
let recompute_con t ci =
  let cs = t.cons.(ci) in
  let old_arrival = cs.arrival and old_crit = cs.crit_delay in
  compute_con t.dg cs;
  if not (same_float old_crit cs.crit_delay) then
    Array.iter (fun (net, _) -> bump t net) t.con_nets.(ci)
  else begin
    let moved v = not (same_float old_arrival.(v) cs.arrival.(v)) in
    Array.iter (fun (net, ends) -> if Array.exists moved ends then bump t net) t.con_nets.(ci)
  end

let refresh t =
  Array.iter (compute_con t.dg) t.cons;
  Array.iteri (fun net _ -> bump t net) t.net_rev

let refresh_for_nets t nets =
  let affected = Hashtbl.create 8 in
  List.iter
    (fun net ->
      bump t net;
      List.iter (fun ci -> Hashtbl.replace affected ci ()) t.net_constraints.(net))
    nets;
  Hashtbl.iter (fun ci () -> recompute_con t ci) affected

let set_limit t ci limit_ps =
  let cs = t.cons.(ci) in
  cs.pc <-
    Path_constraint.make ~name:cs.pc.Path_constraint.cname ~sources:cs.pc.Path_constraint.sources
      ~sinks:cs.pc.Path_constraint.sinks ~limit_ps;
  Array.iter (fun (net, _) -> bump t net) t.con_nets.(ci)

let margin t ci =
  let cs = t.cons.(ci) in
  if cs.crit_delay = neg_infinity then infinity else cs.pc.Path_constraint.limit_ps -. cs.crit_delay

let critical_delay t ci = t.cons.(ci).crit_delay
let arrival t ci = t.cons.(ci).arrival
let in_gd t ci v = t.cons.(ci).mask.(v)

let gd_edges_of_net t ~ci ~net =
  Option.value (Hashtbl.find_opt t.gd_net_edges (ci, net)) ~default:[]

let constraints_of_net t net = t.net_constraints.(net)

let critical_path t ci =
  let cs = t.cons.(ci) in
  if cs.crit_delay = neg_infinity then []
  else begin
    let dag = Delay_graph.dag t.dg in
    (* Start from the worst sink and walk arrival-realizing edges back. *)
    let best_sink =
      List.fold_left
        (fun acc s ->
          match acc with
          | None -> Some s
          | Some b -> if cs.arrival.(s) > cs.arrival.(b) then Some s else acc)
        None cs.sink_vertices
    in
    match best_sink with
    | None -> []
    | Some sink ->
      let eps = 1e-9 in
      let rec walk v acc =
        let pred = ref (-1) in
        Dag.iter_in dag v (fun ~edge_id:_ ~src ~weight ->
            if
              !pred = -1
              && cs.arrival.(src) > neg_infinity
              && abs_float (cs.arrival.(src) +. weight -. cs.arrival.(v)) < eps
            then pred := src);
        if !pred = -1 then v :: acc else walk !pred (v :: acc)
      in
      walk sink []
  end

let critical_nets t ci =
  let path = critical_path t ci in
  let rec nets = function
    | [] | [ _ ] -> []
    | v :: (_ :: _ as rest) ->
      let n = t.net_of_driver.(v) in
      if n >= 0 then n :: nets rest else nets rest
  in
  nets path

let required t ci =
  let cs = t.cons.(ci) in
  let dag = Delay_graph.dag t.dg in
  let to_sink = Dag.longest_to dag ~sinks:(List.map (fun s -> (s, 0.0)) cs.sink_vertices) in
  Array.map
    (fun d -> if d = neg_infinity then infinity else cs.pc.Path_constraint.limit_ps -. d)
    to_sink

let vertex_slack t ci =
  let cs = t.cons.(ci) in
  let req = required t ci in
  Array.mapi
    (fun v r ->
      if cs.arrival.(v) = neg_infinity then infinity else r -. cs.arrival.(v))
    req

type endpoint_report = {
  ep_vertex : int;
  ep_delay_ps : float;
  ep_slack_ps : float;
  ep_path : int list;
}

(* Walk arrival-realizing predecessors back from a sink. *)
let path_to t ci sink =
  let cs = t.cons.(ci) in
  let dag = Delay_graph.dag t.dg in
  let eps = 1e-9 in
  let rec walk v acc =
    let pred = ref (-1) in
    Dag.iter_in dag v (fun ~edge_id:_ ~src ~weight ->
        if
          !pred = -1
          && cs.arrival.(src) > neg_infinity
          && abs_float (cs.arrival.(src) +. weight -. cs.arrival.(v)) < eps
        then pred := src);
    if !pred = -1 then v :: acc else walk !pred (v :: acc)
  in
  walk sink []

let endpoint_reports t ci =
  let cs = t.cons.(ci) in
  let limit = cs.pc.Path_constraint.limit_ps in
  List.filter_map
    (fun sink ->
      if cs.arrival.(sink) = neg_infinity then None
      else
        Some
          { ep_vertex = sink;
            ep_delay_ps = cs.arrival.(sink);
            ep_slack_ps = limit -. cs.arrival.(sink);
            ep_path = path_to t ci sink })
    cs.sink_vertices
  |> List.sort (fun a b -> Float.compare a.ep_slack_ps b.ep_slack_ps)

let margins t = Array.init (Array.length t.cons) (fun ci -> margin t ci)

let total_negative_margin t =
  Array.fold_left
    (fun acc cs ->
      if cs.crit_delay = neg_infinity then acc
      else begin
        let m = cs.pc.Path_constraint.limit_ps -. cs.crit_delay in
        if m < 0.0 then acc +. m else acc
      end)
    0.0 t.cons

let endpoint_slacks t ci =
  let cs = t.cons.(ci) in
  let limit = cs.pc.Path_constraint.limit_ps in
  List.filter_map
    (fun sink ->
      if cs.arrival.(sink) = neg_infinity then None else Some (limit -. cs.arrival.(sink)))
    cs.sink_vertices

let endpoint_slack_extremes t =
  let lo = ref infinity and hi = ref neg_infinity and any = ref false in
  Array.iter
    (fun cs ->
      let limit = cs.pc.Path_constraint.limit_ps in
      List.iter
        (fun sink ->
          if cs.arrival.(sink) > neg_infinity then begin
            any := true;
            let s = limit -. cs.arrival.(sink) in
            if s < !lo then lo := s;
            if s > !hi then hi := s
          end)
        cs.sink_vertices)
    t.cons;
  if !any then Some (!lo, !hi) else None

let worst t =
  let best = ref None in
  Array.iteri
    (fun ci _ ->
      let m = margin t ci in
      match !best with
      | Some (_, bm) when bm <= m -> ()
      | _ -> best := Some (ci, m))
    t.cons;
  !best

let worst_path_delay t =
  Array.fold_left (fun acc cs -> max acc cs.crit_delay) neg_infinity t.cons

let violations t =
  let v = ref [] in
  Array.iteri (fun ci _ -> if margin t ci < 0.0 then v := (ci, margin t ci) :: !v) t.cons;
  List.sort (fun (_, m1) (_, m2) -> Float.compare m1 m2) !v |> List.map fst

let static_net_slacks dg pcs =
  let netlist = Delay_graph.netlist dg in
  let n_nets = Netlist.n_nets netlist in
  (* Raw-weight snapshot: restores exactly even under per-sink delay
     models (a capacitance snapshot would re-inject NaN there). *)
  let saved = Delay_graph.snapshot_weights dg in
  for net = 0 to n_nets - 1 do
    Delay_graph.set_net_cap dg ~net ~cap_ff:0.0
  done;
  let dag = Delay_graph.dag dg in
  let slacks = Array.make n_nets infinity in
  let apply pc =
    let srcs =
      List.map
        (fun n ->
          let v = resolve dg n in
          (v, Delay_graph.launch_offset dg v))
        pc.Path_constraint.sources
    in
    let sinks = List.map (fun n -> (resolve dg n, 0.0)) pc.Path_constraint.sinks in
    let fwd = Dag.longest_from dag ~sources:srcs in
    let bwd = Dag.longest_to dag ~sinks in
    for net = 0 to n_nets - 1 do
      let v = Delay_graph.driver_vertex dg net in
      if fwd.(v) > neg_infinity && bwd.(v) > neg_infinity then begin
        let slack = pc.Path_constraint.limit_ps -. (fwd.(v) +. bwd.(v)) in
        if slack < slacks.(net) then slacks.(net) <- slack
      end
    done
  in
  List.iter apply pcs;
  Delay_graph.restore_weights dg saved;
  slacks

let static_net_order dg pcs =
  let slacks = static_net_slacks dg pcs in
  let ids = List.init (Array.length slacks) Fun.id in
  List.stable_sort (fun a b -> Float.compare slacks.(a) slacks.(b)) ids
