type edge = { id : int; u : int; v : int; weight : float }

type t = {
  mutable edges : edge array;  (* indexed by edge id; slot may be unused past n_edges *)
  mutable alive : Bytes.t;  (* one flag byte per edge id *)
  mutable n_edges : int;
  mutable adjacency : int list array;  (* per vertex: incident edge ids, newest first *)
  mutable n_vertices : int;
  mutable n_live : int;
}

let dummy_edge = { id = -1; u = -1; v = -1; weight = 0.0 }

let create ?(vertex_hint = 16) ?(edge_hint = 32) () =
  { edges = Array.make (max 1 edge_hint) dummy_edge;
    alive = Bytes.make (max 1 edge_hint) '\000';
    n_edges = 0;
    adjacency = Array.make (max 1 vertex_hint) [];
    n_vertices = 0;
    n_live = 0 }

let add_vertex t =
  let capacity = Array.length t.adjacency in
  if t.n_vertices = capacity then begin
    let adjacency = Array.make (2 * capacity) [] in
    Array.blit t.adjacency 0 adjacency 0 capacity;
    t.adjacency <- adjacency
  end;
  let v = t.n_vertices in
  t.n_vertices <- v + 1;
  v

let n_vertices t = t.n_vertices
let n_edges_total t = t.n_edges
let n_edges_live t = t.n_live

let check_vertex t v =
  if v < 0 || v >= t.n_vertices then
    Bgr_error.raise_error Bgr_error.Internal "Ugraph: unknown vertex %d (have %d)" v t.n_vertices

let check_edge t e =
  if e < 0 || e >= t.n_edges then
    Bgr_error.raise_error Bgr_error.Internal "Ugraph: unknown edge id %d (have %d)" e t.n_edges

let add_edge t ~u ~v ~weight =
  check_vertex t u;
  check_vertex t v;
  let capacity = Array.length t.edges in
  if t.n_edges = capacity then begin
    let edges = Array.make (2 * capacity) dummy_edge in
    Array.blit t.edges 0 edges 0 capacity;
    t.edges <- edges;
    let alive = Bytes.make (2 * capacity) '\000' in
    Bytes.blit t.alive 0 alive 0 capacity;
    t.alive <- alive
  end;
  let id = t.n_edges in
  t.n_edges <- id + 1;
  t.edges.(id) <- { id; u; v; weight };
  Bytes.set t.alive id '\001';
  t.n_live <- t.n_live + 1;
  t.adjacency.(u) <- id :: t.adjacency.(u);
  if v <> u then t.adjacency.(v) <- id :: t.adjacency.(v);
  id

let is_live t e = e >= 0 && e < t.n_edges && Bytes.get t.alive e = '\001'

let delete_edge t e =
  check_edge t e;
  if Bytes.get t.alive e = '\001' then begin
    Bytes.set t.alive e '\000';
    t.n_live <- t.n_live - 1
  end

let edge t e =
  check_edge t e;
  t.edges.(e)

let other_endpoint e v =
  if e.u = v then e.v
  else if e.v = v then e.u
  else
    Bgr_error.raise_error Bgr_error.Internal
      "Ugraph.other_endpoint: vertex %d not on edge %d (%d-%d)" v e.id e.u e.v

let rec iter_live_ids t f = function
  | [] -> ()
  | id :: rest ->
    if Bytes.unsafe_get t.alive id = '\001' then f (Array.unsafe_get t.edges id);
    iter_live_ids t f rest

let iter_incident_unchecked t v f = iter_live_ids t f (Array.unsafe_get t.adjacency v)

let iter_incident t v f =
  check_vertex t v;
  iter_incident_unchecked t v f

let fold_incident t v f acc =
  check_vertex t v;
  List.fold_left (fun acc id -> if is_live t id then f acc t.edges.(id) else acc) acc t.adjacency.(v)

let degree t v =
  fold_incident t v (fun d e -> if e.u = e.v then d + 2 else d + 1) 0

let iter_edges t f =
  for id = 0 to t.n_edges - 1 do
    if Bytes.get t.alive id = '\001' then f t.edges.(id)
  done

let fold_edges t f acc =
  let acc = ref acc in
  iter_edges t (fun e -> acc := f !acc e);
  !acc

let live_edges t = List.rev (fold_edges t (fun acc e -> e :: acc) [])

let components t =
  let label = Array.make (max 1 t.n_vertices) (-1) in
  let stack = Stack.create () in
  for root = 0 to t.n_vertices - 1 do
    if label.(root) = -1 then begin
      label.(root) <- root;
      Stack.push root stack;
      while not (Stack.is_empty stack) do
        let v = Stack.pop stack in
        let visit e =
          let w = other_endpoint e v in
          if label.(w) = -1 then begin
            label.(w) <- root;
            Stack.push w stack
          end
        in
        iter_incident t v visit
      done
    end
  done;
  label

let connected_within t vs =
  match vs with
  | [] | [ _ ] -> true
  | v0 :: rest ->
    let label = components t in
    let root = label.(v0) in
    List.for_all (fun v -> label.(v) = root) rest
