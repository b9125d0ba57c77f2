(* The plain tentative-tree algorithm, kept as the slow reference for
   [Dijkstra]'s kernel: a full Dijkstra search with fresh arrays, each
   target's path collected into a [Hashtbl], the union sorted.  The
   kernel must agree with it bit for bit (test_graph), and the selection
   oracle prices CL-without through it. *)

type result = { dist : float array; parent_edge : int array }

let shortest_paths ?(exclude_edge = -1) ?cost g ~source =
  let cost = match cost with Some f -> f | None -> fun (e : Ugraph.edge) -> e.Ugraph.weight in
  let n = Ugraph.n_vertices g in
  let dist = Array.make (max 1 n) infinity in
  let parent_edge = Array.make (max 1 n) (-1) in
  let settled = Bytes.make (max 1 n) '\000' in
  let heap = Heap.create () in
  dist.(source) <- 0.0;
  Heap.push heap 0.0 source;
  let relax v (e : Ugraph.edge) =
    if e.id <> exclude_edge && e.u <> e.v then begin
      let w = Ugraph.other_endpoint e v in
      let d = dist.(v) +. cost e in
      if d < dist.(w) then begin
        dist.(w) <- d;
        parent_edge.(w) <- e.id;
        Heap.push heap d w
      end
    end
  in
  let rec drain () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, v) ->
      if Bytes.get settled v = '\000' && d <= dist.(v) then begin
        Bytes.set settled v '\001';
        Ugraph.iter_incident g v (relax v)
      end;
      drain ()
  in
  drain ();
  { dist; parent_edge }

let path_edges g r ~target =
  if r.dist.(target) = infinity then None
  else begin
    let rec walk v acc =
      match r.parent_edge.(v) with
      | -1 -> acc
      | eid ->
        let e = Ugraph.edge g eid in
        walk (Ugraph.other_endpoint e v) (eid :: acc)
    in
    Some (List.rev (walk target []))
  end

let tentative_tree ?exclude_edge ?cost g ~source ~targets =
  let r =
    match exclude_edge with
    | None -> shortest_paths ?cost g ~source
    | Some e -> shortest_paths ~exclude_edge:e ?cost g ~source
  in
  let exception Unreachable in
  let seen = Hashtbl.create 64 in
  let add_path target =
    match path_edges g r ~target with
    | None -> raise Unreachable
    | Some edges -> List.iter (fun eid -> Hashtbl.replace seen eid ()) edges
  in
  match List.iter add_path targets with
  | () ->
    let ids = Hashtbl.fold (fun eid () acc -> eid :: acc) seen [] in
    Some (List.sort Int.compare ids)
  | exception Unreachable -> None
