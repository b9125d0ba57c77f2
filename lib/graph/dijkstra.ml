(* One kernel builds every tentative tree: a Dijkstra search from the
   source that stops once every target is settled, then the union of
   the targets' parent chains.  Its scratch (distances, parent edges,
   stamp marks, the heap) lives in [Domain.DLS] and is reused, so a
   search allocates nothing per vertex or edge (no key crosses a module
   boundary as a boxed float either), and a stale entry left by an
   earlier search on another graph is simply an older stamp.

   The result is exactly that of the plain algorithm (full search, then
   each target's path collected into a set and sorted; the tests keep it
   as [Ref_dijkstra]):

   - The relax rule is the plain one: strict [<] and the same
     [exclude_edge] and self-loop guards, with the same heap pushes and
     pops in the same order.  So ties pick the same parent edge.
     Changing the heap's tie order would move every deletion hash.
   - The pop filter tests [settled] alone.  The plain one also drops an
     entry whose key exceeds [dist.(v)], but that never decides
     anything: a vertex's keys strictly decrease push by push, so its
     current entry is popped (and settles it) before any stale one.
   - Stopping early is safe because every cost is non-negative (edge
     weights, jog costs, the baseline's congestion price).  Popped keys
     then never decrease, so a settled vertex's parent edge never
     changes again, and every vertex on a target's parent chain was
     settled before the target.
   - The union walks each target's chain up to the first vertex already
     on it, marking edges with the search's stamp.
   - The edge list is read off the marks in ascending id order, and
     [tree_length] sums the marked weights in that order from 0.0: the
     same additions, in the same order, as [edges_length] over the
     sorted list, so the float is bit-identical.

   [cost] must not itself build a tentative tree: the domain's scratch
   is in use. *)

type scratch = {
  mutable stamp : int;  (* the current search; stale marks hold older stamps *)
  mutable dist : float array;  (* valid where [reached] holds the stamp *)
  mutable parent : int array;  (* entering edge id; -1 at the source *)
  mutable reached : int array;
  mutable settled : int array;
  mutable target : int array;
  mutable on_tree : int array;
  mutable edge_mark : int array;
  mutable lo : int;  (* smallest and largest marked edge id *)
  mutable hi : int;
  mutable cur : int;  (* the vertex whose edges are being relaxed *)
  heap : Heap.t;
}

let fresh_scratch () =
  { stamp = 0;
    dist = [||];
    parent = [||];
    reached = [||];
    settled = [||];
    target = [||];
    on_tree = [||];
    edge_mark = [||];
    lo = 0;
    hi = -1;
    cur = 0;
    heap = Heap.create () }

let scratch_key = Domain.DLS.new_key fresh_scratch

(* Fresh arrays hold stamp 0, older than any search, so nothing is
   copied on growth. *)
let ensure sc ~n_vertices ~n_edges =
  if Array.length sc.dist < n_vertices then begin
    let n = max n_vertices (2 * Array.length sc.dist) in
    sc.dist <- Array.make n infinity;
    sc.parent <- Array.make n (-1);
    sc.reached <- Array.make n 0;
    sc.settled <- Array.make n 0;
    sc.target <- Array.make n 0;
    sc.on_tree <- Array.make n 0
  end;
  if Array.length sc.edge_mark < n_edges then
    sc.edge_mark <- Array.make (max n_edges (2 * Array.length sc.edge_mark)) 0

let check_vertex n v =
  if v < 0 || v >= n then
    Bgr_error.raise_error Bgr_error.Internal "Dijkstra: unknown vertex %d (have %d)" v n

(* Mark the distinct targets with the stamp; returns how many. *)
let rec mark_targets sc stamp n pending = function
  | [] -> pending
  | v :: rest ->
    check_vertex n v;
    if sc.target.(v) = stamp then mark_targets sc stamp n pending rest
    else begin
      sc.target.(v) <- stamp;
      mark_targets sc stamp n (pending + 1) rest
    end

(* Search until every target is settled; false when one is unreachable. *)
let search sc g ~exclude_edge ~cost ~source ~targets =
  let n = Ugraph.n_vertices g in
  check_vertex n source;
  ensure sc ~n_vertices:n ~n_edges:(Ugraph.n_edges_total g);
  let stamp = sc.stamp + 1 in
  sc.stamp <- stamp;
  let pending = ref (mark_targets sc stamp n 0 targets) in
  let heap = sc.heap in
  let dist = sc.dist and parent = sc.parent and reached = sc.reached in
  let settled = sc.settled and target = sc.target in
  Heap.clear heap;
  reached.(source) <- stamp;
  dist.(source) <- 0.0;
  parent.(source) <- -1;
  Heap.push_dist heap dist source;
  let relax (e : Ugraph.edge) =
    if e.id <> exclude_edge && e.u <> e.v then begin
      let v = sc.cur in
      let w = if e.u = v then e.v else e.u in
      let d = dist.(v) +. (match cost with None -> e.weight | Some f -> f e) in
      if d < (if reached.(w) = stamp then dist.(w) else infinity) then begin
        reached.(w) <- stamp;
        dist.(w) <- d;
        parent.(w) <- e.id;
        Heap.push_dist heap dist w
      end
    end
  in
  while !pending > 0 && not (Heap.is_empty heap) do
    let v = Heap.pop_min heap in
    if settled.(v) <> stamp then begin
      settled.(v) <- stamp;
      if target.(v) = stamp then decr pending;
      if !pending > 0 then begin
        sc.cur <- v;
        Ugraph.iter_incident_unchecked g v relax
      end
    end
  done;
  !pending = 0

let rec climb sc g stamp v =
  if sc.on_tree.(v) <> stamp then begin
    sc.on_tree.(v) <- stamp;
    let eid = sc.parent.(v) in
    if eid >= 0 then begin
      sc.edge_mark.(eid) <- stamp;
      if eid < sc.lo then sc.lo <- eid;
      if eid > sc.hi then sc.hi <- eid;
      climb sc g stamp (Ugraph.other_endpoint (Ugraph.edge g eid) v)
    end
  end

let rec mark_union sc g stamp = function
  | [] -> ()
  | v :: rest ->
    climb sc g stamp v;
    mark_union sc g stamp rest

(* Run the kernel; on success the union is marked in [sc] between
   [lo] and [hi]. *)
let union sc ~exclude_edge ~cost g ~source ~targets =
  search sc g ~exclude_edge ~cost ~source ~targets
  && begin
    sc.lo <- max_int;
    sc.hi <- -1;
    mark_union sc g sc.stamp targets;
    true
  end

let tentative_tree ?(exclude_edge = -1) ?cost g ~source ~targets =
  let sc = Domain.DLS.get scratch_key in
  if not (union sc ~exclude_edge ~cost g ~source ~targets) then None
  else begin
    let ids = ref [] in
    for id = sc.hi downto sc.lo do
      if sc.edge_mark.(id) = sc.stamp then ids := id :: !ids
    done;
    Some !ids
  end

let tree_length ?(exclude_edge = -1) g ~source ~targets =
  let sc = Domain.DLS.get scratch_key in
  if not (union sc ~exclude_edge ~cost:None g ~source ~targets) then None
  else begin
    let um = ref 0.0 in
    for id = sc.lo to sc.hi do
      if sc.edge_mark.(id) = sc.stamp then um := !um +. (Ugraph.edge g id).weight
    done;
    Some !um
  end

let edges_length g edge_ids =
  List.fold_left (fun acc eid -> acc +. (Ugraph.edge g eid).weight) 0.0 edge_ids
