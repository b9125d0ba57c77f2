type position = { channel : int; x : int }
type vertex_kind = Terminal of Netlist.endpoint | Position of position

type edge_kind =
  | Trunk of { channel : int; span : Interval.t }
  | Branch of { row : int; x : int }
  | Correspondence of position

type t = {
  net_id : int;
  pitch : int;
  graph : Ugraph.t;
  mutable vkind : vertex_kind array;
  mutable ekind : edge_kind array;
  mutable geo_um : float array;
  terminals : int list;
  driver : int;
  cap_per_um : float;
}

exception Unroutable of string

let edge_kind t eid = t.ekind.(eid)

let is_trunk t eid = match t.ekind.(eid) with Trunk _ -> true | Branch _ | Correspondence _ -> false

let density_locus t eid =
  match t.ekind.(eid) with
  | Trunk { channel; span } -> (channel, span)
  | Branch { row; x } -> (row, Interval.point x)
  | Correspondence { channel; x } -> (channel, Interval.point x)

(* Growable-array helpers: vkind/ekind are appended in step with the
   graph's vertex/edge allocation. *)
let push_vkind t k =
  let n = Ugraph.n_vertices t.graph in
  if n > Array.length t.vkind then begin
    let bigger = Array.make (max 8 (2 * n)) k in
    Array.blit t.vkind 0 bigger 0 (Array.length t.vkind);
    t.vkind <- bigger
  end;
  t.vkind.(n - 1) <- k

let push_ekind t k ~geo =
  let n = Ugraph.n_edges_total t.graph in
  if n > Array.length t.ekind then begin
    let bigger = Array.make (max 8 (2 * n)) k in
    Array.blit t.ekind 0 bigger 0 (Array.length t.ekind);
    t.ekind <- bigger;
    let bigger_geo = Array.make (max 8 (2 * n)) 0.0 in
    Array.blit t.geo_um 0 bigger_geo 0 (Array.length t.geo_um);
    t.geo_um <- bigger_geo
  end;
  t.ekind.(n - 1) <- k;
  t.geo_um.(n - 1) <- geo

let build ?(jog_cost = fun _ -> 0.0) fp assignment ~net =
  let netlist = Floorplan.netlist fp in
  let n = Netlist.net netlist net in
  let dims = Floorplan.dims fp in
  let graph = Ugraph.create ~vertex_hint:16 ~edge_hint:32 () in
  let t =
    { net_id = net;
      pitch = n.Netlist.pitch;
      graph;
      vkind = Array.make 8 (Position { channel = -1; x = -1 });
      ekind = Array.make 8 (Correspondence { channel = -1; x = -1 });
      geo_um = Array.make 8 0.0;
      terminals = [];
      driver = -1;
      cap_per_um = Dims.cap_per_um_at dims ~width:(float_of_int n.Netlist.pitch) }
  in
  let positions = Hashtbl.create 32 in
  let position_vertex (p : position) =
    match Hashtbl.find_opt positions (p.channel, p.x) with
    | Some v -> v
    | None ->
      let v = Ugraph.add_vertex graph in
      push_vkind t (Position p);
      Hashtbl.replace positions (p.channel, p.x) v;
      v
  in
  let add_terminal ep =
    let v = Ugraph.add_vertex graph in
    push_vkind t (Terminal ep);
    let cols =
      match ep with
      | Netlist.Pin _ -> [ Floorplan.endpoint_column fp ep ]
      | Netlist.Port q -> Floorplan.port_candidates fp q
    in
    let link channel x =
      let p = { channel; x } in
      let pv = position_vertex p in
      ignore (Ugraph.add_edge graph ~u:v ~v:pv ~weight:(jog_cost channel));
      push_ekind t (Correspondence p) ~geo:0.0
    in
    List.iter
      (fun channel -> List.iter (fun x -> link channel x) cols)
      (Floorplan.endpoint_channels fp ep);
    v
  in
  let endpoints = n.Netlist.driver :: n.Netlist.sinks in
  let terminal_vertices = List.map add_terminal endpoints in
  let driver = List.hd terminal_vertices in
  (* Branch edges for every granted feedthrough group (one crossing per
     row; a multi-pitch group is represented at its leftmost column). *)
  let add_branch (row, slots) =
    match slots with
    | [] -> ()
    | (s : Floorplan.slot) :: _ ->
      let x = s.Floorplan.slot_x in
      let below = position_vertex { channel = row; x } in
      let above = position_vertex { channel = row + 1; x } in
      let weight = dims.Dims.row_height_um +. jog_cost row +. jog_cost (row + 1) in
      ignore (Ugraph.add_edge graph ~u:below ~v:above ~weight);
      push_ekind t (Branch { row; x }) ~geo:dims.Dims.row_height_um
  in
  List.iter add_branch (Feedthrough.slots_of_net assignment net);
  (* Trunk edges between consecutive positions of each channel. *)
  let by_channel = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (channel, x) v ->
      Hashtbl.replace by_channel channel ((x, v) :: Option.value (Hashtbl.find_opt by_channel channel) ~default:[]))
    positions;
  let add_trunks channel points =
    let sorted = List.sort (fun (x1, _) (x2, _) -> Int.compare x1 x2) points in
    let rec link = function
      | (x1, v1) :: ((x2, v2) :: _ as rest) ->
        (* A blocked channel span gets no trunk: the route must detour
           through another channel (paper input "blockages on the
           routing layers"). *)
        if not (Floorplan.trunk_blocked fp ~channel ~x1 ~x2) then begin
          let weight = Dims.h_um dims (x2 - x1) in
          ignore (Ugraph.add_edge graph ~u:v1 ~v:v2 ~weight);
          (* Half-open span [x1, x2): chained trunks of one net never
             double-count a column in the density charts. *)
          push_ekind t (Trunk { channel; span = Interval.span x1 x2 }) ~geo:weight
        end;
        link rest
      | [] | [ _ ] -> ()
    in
    link sorted
  in
  Hashtbl.iter add_trunks by_channel;
  let t = { t with terminals = terminal_vertices; driver } in
  if not (Ugraph.connected_within graph terminal_vertices) then
    raise
      (Unroutable
         (Printf.sprintf "net %d (%s): candidate graph does not connect its terminals" net
            n.Netlist.net_name));
  t

let prune_dangling t ~on_delete =
  let is_terminal v = match t.vkind.(v) with Terminal _ -> true | Position _ -> false in
  (* Worklist of vertices to examine; a deletion re-enqueues the other
     endpoint. *)
  let queue = Queue.create () in
  for v = 0 to Ugraph.n_vertices t.graph - 1 do
    Queue.add v queue
  done;
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    if not (is_terminal v) && Ugraph.degree t.graph v = 1 then begin
      let doomed = ref None in
      Ugraph.iter_incident t.graph v (fun e -> doomed := Some e);
      match !doomed with
      | None -> ()
      | Some e ->
        Ugraph.delete_edge t.graph e.Ugraph.id;
        on_delete e;
        Queue.add (Ugraph.other_endpoint e v) queue
    end
  done

let tree_capacitance t ~edge_ids =
  let um = Dijkstra.edges_length t.graph edge_ids in
  um *. t.cap_per_um

let geometric_length_um t ~edge_ids =
  List.fold_left (fun acc eid -> acc +. t.geo_um.(eid)) 0.0 edge_ids

(* The driver is among [terminals]; as a target of its own search it
   adds no edge. *)
let tentative_tree ?exclude_edge ?cost t =
  Dijkstra.tentative_tree ?exclude_edge ?cost t.graph ~source:t.driver ~targets:t.terminals

let tentative_capacitance t ~exclude_edge =
  match Dijkstra.tree_length ~exclude_edge t.graph ~source:t.driver ~targets:t.terminals with
  | Some um -> Some (um *. t.cap_per_um)
  | None -> None

let pp fp ppf t =
  let netlist = Floorplan.netlist fp in
  Format.fprintf ppf "@[<v>G_r(net %d), %d vertices, %d live edges@," t.net_id
    (Ugraph.n_vertices t.graph) (Ugraph.n_edges_live t.graph);
  Ugraph.iter_edges t.graph (fun e ->
      let describe v =
        match t.vkind.(v) with
        | Terminal ep -> Format.asprintf "T(%a)" (Netlist.pp_endpoint netlist) ep
        | Position p -> Printf.sprintf "P(c%d,x%d)" p.channel p.x
      in
      let kind =
        match t.ekind.(e.Ugraph.id) with
        | Trunk { channel; span } -> Format.asprintf "trunk c%d %a" channel Interval.pp span
        | Branch { row; x } -> Printf.sprintf "branch row%d x%d" row x
        | Correspondence _ -> "corr"
      in
      Format.fprintf ppf "  e%d: %s -- %s  (%s, %.1f um)@," e.Ugraph.id (describe e.Ugraph.u)
        (describe e.Ugraph.v) kind e.Ugraph.weight);
  Format.fprintf ppf "@]"
