(* Tests for bgr_graph: Dsu, Heap, Ugraph, Bridges, Dijkstra, Dag. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* --- Dsu ------------------------------------------------------------- *)

let test_dsu () =
  let d = Dsu.create 6 in
  check_bool "initially distinct" false (Dsu.same d 0 1);
  check_bool "union merges" true (Dsu.union d 0 1);
  check_bool "re-union is false" false (Dsu.union d 1 0);
  ignore (Dsu.union d 2 3);
  ignore (Dsu.union d 1 2);
  check_bool "transitivity" true (Dsu.same d 0 3);
  check_int "distinct count" 3 (Dsu.count_distinct d [ 0; 1; 2; 3; 4; 5 ])

let prop_dsu_vs_naive =
  (* Compare against a naive labelling after random unions. *)
  let gen = QCheck.(list_of_size (QCheck.Gen.int_range 0 40) (pair (int_range 0 14) (int_range 0 14))) in
  QCheck.Test.make ~name:"dsu: agrees with naive relabelling" ~count:200 gen (fun unions ->
      let d = Dsu.create 15 in
      let label = Array.init 15 Fun.id in
      let relabel a b =
        let la = label.(a) and lb = label.(b) in
        if la <> lb then Array.iteri (fun i l -> if l = lb then label.(i) <- la) label
      in
      List.iter
        (fun (a, b) ->
          ignore (Dsu.union d a b);
          relabel a b)
        unions;
      let ok = ref true in
      for i = 0 to 14 do
        for j = 0 to 14 do
          if Dsu.same d i j <> (label.(i) = label.(j)) then ok := false
        done
      done;
      !ok)

(* --- Heap ------------------------------------------------------------ *)

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun (k, v) -> Heap.push h k v) [ (3.0, 3); (1.0, 1); (2.0, 2); (0.5, 0); (2.5, 25) ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some (_, v) ->
      order := v :: !order;
      drain ()
  in
  drain ();
  Alcotest.(check (list int)) "pops ascending" [ 0; 1; 2; 25; 3 ] (List.rev !order)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap: drains keys in nondecreasing order" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 100) (float_range (-100.) 100.))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h k i) keys;
      let rec drain last =
        match Heap.pop h with
        | None -> true
        | Some (k, _) -> k >= last && drain k
      in
      drain neg_infinity)

let prop_heap_pop_min =
  (* [push_dist]/[pop_min] on a reused, cleared heap give [push]/[pop]'s
     exact payload sequence, ties included: the kernel's parent edges
     depend on it. *)
  QCheck.Test.make ~name:"heap: cleared heap with push_dist/pop_min pops as a fresh heap"
    ~count:200
    QCheck.(pair (small_list (int_range 0 5)) (small_list (int_range 0 5)))
    (fun (junk, keys) ->
      let fresh = Heap.create () and reused = Heap.create () in
      List.iteri (fun i k -> Heap.push reused (float_of_int k) (-i)) junk;
      Heap.clear reused;
      let dist = Array.of_list (List.map float_of_int keys) in
      List.iteri
        (fun i k ->
          Heap.push fresh (float_of_int k) i;
          Heap.push_dist reused dist i)
        keys;
      let rec same () =
        match Heap.pop fresh with
        | None -> Heap.is_empty reused
        | Some (_, v) -> v = Heap.pop_min reused && same ()
      in
      same ())

(* --- Ugraph ----------------------------------------------------------- *)

let path_graph n =
  let g = Ugraph.create () in
  let vs = Array.init n (fun _ -> Ugraph.add_vertex g) in
  let es =
    Array.init (n - 1) (fun i -> Ugraph.add_edge g ~u:vs.(i) ~v:vs.(i + 1) ~weight:1.0)
  in
  (g, vs, es)

let test_ugraph_basics () =
  let g, vs, es = path_graph 4 in
  check_int "vertices" 4 (Ugraph.n_vertices g);
  check_int "live edges" 3 (Ugraph.n_edges_live g);
  check_int "degree middle" 2 (Ugraph.degree g vs.(1));
  check_int "degree end" 1 (Ugraph.degree g vs.(0));
  Ugraph.delete_edge g es.(1);
  check_int "live after delete" 2 (Ugraph.n_edges_live g);
  check_bool "deleted is dead" false (Ugraph.is_live g es.(1));
  Ugraph.delete_edge g es.(1) (* idempotent *);
  check_int "double delete harmless" 2 (Ugraph.n_edges_live g);
  check_int "degree drops" 1 (Ugraph.degree g vs.(1))

let test_ugraph_connectivity () =
  let g, vs, es = path_graph 5 in
  check_bool "path connected" true (Ugraph.connected_within g (Array.to_list vs));
  Ugraph.delete_edge g es.(2);
  check_bool "split" false (Ugraph.connected_within g (Array.to_list vs));
  check_bool "left half connected" true (Ugraph.connected_within g [ vs.(0); vs.(1); vs.(2) ]);
  check_bool "singleton vacuous" true (Ugraph.connected_within g [ vs.(4) ]);
  check_bool "empty vacuous" true (Ugraph.connected_within g [])

let test_ugraph_parallel_edges () =
  let g = Ugraph.create () in
  let a = Ugraph.add_vertex g and b = Ugraph.add_vertex g in
  let e1 = Ugraph.add_edge g ~u:a ~v:b ~weight:1.0 in
  let _e2 = Ugraph.add_edge g ~u:a ~v:b ~weight:2.0 in
  check_int "parallel degree" 2 (Ugraph.degree g a);
  Ugraph.delete_edge g e1;
  check_bool "still connected via the twin" true (Ugraph.connected_within g [ a; b ])

let test_ugraph_other_endpoint () =
  let g, vs, es = path_graph 2 in
  let e = Ugraph.edge g es.(0) in
  check_int "other of u" vs.(1) (Ugraph.other_endpoint e vs.(0));
  check_int "other of v" vs.(0) (Ugraph.other_endpoint e vs.(1));
  check_bool "stranger rejected" true
    (let w = Ugraph.add_vertex g in
     match Ugraph.other_endpoint e w with
     | exception Bgr_error.Error { Bgr_error.code = Bgr_error.Internal; _ } -> true
     | _ -> false)

(* Random connected-ish multigraph for property tests. *)
let random_graph_gen =
  QCheck.Gen.(
    let* n = int_range 2 10 in
    let* m = int_range 1 20 in
    let* pairs = list_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
    return (n, pairs))

let build_graph (n, pairs) =
  let g = Ugraph.create () in
  for _ = 1 to n do
    ignore (Ugraph.add_vertex g)
  done;
  List.iter
    (fun (u, v) -> if u <> v then ignore (Ugraph.add_edge g ~u ~v ~weight:1.0))
    pairs;
  g

(* --- Bridges ----------------------------------------------------------- *)

(* Naive bridge check: rebuild the graph without one edge and compare
   component counts. *)
let graph_without (n, pairs) skip_index =
  let g = Ugraph.create () in
  for _ = 1 to n do
    ignore (Ugraph.add_vertex g)
  done;
  List.iteri
    (fun i (u, v) -> if i <> skip_index then ignore (Ugraph.add_edge g ~u ~v ~weight:1.0))
    pairs;
  g

let n_components g =
  let label = Ugraph.components g in
  let seen = Hashtbl.create 8 in
  Array.iter (fun l -> Hashtbl.replace seen l ()) label;
  Hashtbl.length seen

let prop_bridges_vs_naive =
  QCheck.Test.make ~name:"bridges: agree with delete-and-recount" ~count:300
    (QCheck.make random_graph_gen)
    (fun (n, pairs) ->
      let pairs = List.filter (fun (u, v) -> u <> v) pairs in
      let g = build_graph (n, pairs) in
      let flags = Bridges.bridges g in
      let base = n_components g in
      List.for_all
        (fun i ->
          let without = graph_without (n, pairs) i in
          flags.(i) = (n_components without > base))
        (List.init (List.length pairs) Fun.id))

let test_bridges_path_and_cycle () =
  let g, _, es = path_graph 4 in
  let flags = Bridges.bridges g in
  Array.iter (fun e -> check_bool "path edges are bridges" true flags.(e)) es;
  (* Close the cycle: no bridges remain. *)
  let g2 = Ugraph.create () in
  let vs = Array.init 4 (fun _ -> Ugraph.add_vertex g2) in
  let es2 = Array.init 4 (fun i -> Ugraph.add_edge g2 ~u:vs.(i) ~v:vs.((i + 1) mod 4) ~weight:1.0) in
  let flags2 = Bridges.bridges g2 in
  Array.iter (fun e -> check_bool "cycle has no bridges" false flags2.(e)) es2;
  check_int "non_bridge_ids counts the cycle" 4 (List.length (Bridges.non_bridge_ids g2))

let test_bridges_parallel () =
  let g = Ugraph.create () in
  let a = Ugraph.add_vertex g and b = Ugraph.add_vertex g in
  let e1 = Ugraph.add_edge g ~u:a ~v:b ~weight:1.0 in
  let e2 = Ugraph.add_edge g ~u:a ~v:b ~weight:1.0 in
  let flags = Bridges.bridges g in
  check_bool "parallel edge 1 not a bridge" false flags.(e1);
  check_bool "parallel edge 2 not a bridge" false flags.(e2);
  Ugraph.delete_edge g e2;
  let flags = Bridges.bridges g in
  check_bool "survivor becomes a bridge" true flags.(e1)

(* --- Dijkstra ----------------------------------------------------------- *)

let test_dijkstra_distances () =
  (* diamond with a shortcut *)
  let g = Ugraph.create () in
  let v = Array.init 4 (fun _ -> Ugraph.add_vertex g) in
  let _ = Ugraph.add_edge g ~u:v.(0) ~v:v.(1) ~weight:1.0 in
  let _ = Ugraph.add_edge g ~u:v.(1) ~v:v.(3) ~weight:1.0 in
  let _ = Ugraph.add_edge g ~u:v.(0) ~v:v.(2) ~weight:2.5 in
  let _ = Ugraph.add_edge g ~u:v.(2) ~v:v.(3) ~weight:0.1 in
  let r = Ref_dijkstra.shortest_paths g ~source:v.(0) in
  check_float "direct" 1.0 r.Ref_dijkstra.dist.(v.(1));
  check_float "via shortcut" 2.0 r.Ref_dijkstra.dist.(v.(3));
  check_float "long way" 2.1 r.Ref_dijkstra.dist.(v.(2))

let test_dijkstra_exclude () =
  let g, vs, es = path_graph 3 in
  let r = Ref_dijkstra.shortest_paths ~exclude_edge:es.(0) g ~source:vs.(0) in
  check_bool "excluded edge disconnects" true (r.Ref_dijkstra.dist.(vs.(2)) = infinity);
  check_bool "tentative tree signals it" true
    (Dijkstra.tentative_tree ~exclude_edge:es.(0) g ~source:vs.(0) ~targets:[ vs.(2) ] = None)

let test_tentative_tree_union () =
  (* Y-shaped graph: tree is the union of the two shortest paths. *)
  let g = Ugraph.create () in
  let v = Array.init 4 (fun _ -> Ugraph.add_vertex g) in
  let e0 = Ugraph.add_edge g ~u:v.(0) ~v:v.(1) ~weight:1.0 in
  let e1 = Ugraph.add_edge g ~u:v.(1) ~v:v.(2) ~weight:1.0 in
  let e2 = Ugraph.add_edge g ~u:v.(1) ~v:v.(3) ~weight:1.0 in
  match Dijkstra.tentative_tree g ~source:v.(0) ~targets:[ v.(2); v.(3) ] with
  | None -> Alcotest.fail "expected a tree"
  | Some edges ->
    Alcotest.(check (list int)) "tree edges" [ e0; e1; e2 ] edges;
    check_float "length" 3.0 (Dijkstra.edges_length g edges)

let prop_dijkstra_triangle =
  (* Distances satisfy the triangle inequality along any live edge. *)
  QCheck.Test.make ~name:"dijkstra: relaxed along every edge" ~count:200
    (QCheck.make random_graph_gen)
    (fun (n, pairs) ->
      let g = build_graph (n, pairs) in
      let r = Ref_dijkstra.shortest_paths g ~source:0 in
      let ok = ref true in
      Ugraph.iter_edges g (fun e ->
          let du = r.Ref_dijkstra.dist.(e.Ugraph.u) and dv = r.Ref_dijkstra.dist.(e.Ugraph.v) in
          if du < infinity && dv > du +. e.Ugraph.weight +. 1e-9 then ok := false;
          if dv < infinity && du > dv +. e.Ugraph.weight +. 1e-9 then ok := false);
      ignore n;
      !ok)

(* The tentative-tree kernel against the plain algorithm (Ref_dijkstra):
   equal edge lists and bit-equal lengths.  Weights are small integers
   (many ties), zeros and fractions (so summation order shows); graphs
   have parallel edges, self-loops, deleted edges and isolated vertices
   (unreachable targets); some cases exclude an edge or price edges
   through [cost] (those compare the edge lists only: [tree_length]
   prices by the weights). *)
type sp_case = {
  n : int;
  edges : (int * int * float) list;
  deleted : int list;  (* edge ids *)
  source : int;
  targets : int list;
  exclude : int option;
  salt : int option;  (* Some k: a [cost] that ignores the weights *)
}

let sp_case_gen =
  QCheck.Gen.(
    let* n = int_range 1 40 in
    let* m = int_range 0 (3 * n) in
    let weight = oneofl [ 0.0; 1.0; 1.0; 2.0; 3.0; 0.1; 0.2; 0.7; 1e-3; 7.25 ] in
    let* edges = list_repeat m (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) weight) in
    let* deleted = list_size (int_range 0 (m / 3)) (int_range 0 (max 0 (m - 1))) in
    let* source = int_range 0 (n - 1) in
    let* targets = list_size (int_range 0 6) (int_range 0 (n - 1)) in
    let* exclude = opt (int_range (-1) m) in
    let* salt = opt (int_range 1 7) in
    return { n; edges; deleted = (if m = 0 then [] else deleted); source; targets; exclude; salt })

let print_sp_case c =
  Printf.sprintf "n=%d source=%d targets=[%s] exclude=%s salt=%s deleted=[%s] edges=[%s]" c.n
    c.source
    (String.concat ";" (List.map string_of_int c.targets))
    (match c.exclude with Some e -> string_of_int e | None -> "-")
    (match c.salt with Some k -> string_of_int k | None -> "-")
    (String.concat ";" (List.map string_of_int c.deleted))
    (String.concat ";" (List.map (fun (u, v, w) -> Printf.sprintf "%d-%d:%g" u v w) c.edges))

let kernel_matches_reference c =
  let g = Ugraph.create ~vertex_hint:1 ~edge_hint:1 () in
  for _ = 1 to c.n do
    ignore (Ugraph.add_vertex g)
  done;
  List.iter (fun (u, v, weight) -> ignore (Ugraph.add_edge g ~u ~v ~weight)) c.edges;
  List.iter (Ugraph.delete_edge g) c.deleted;
  let cost =
    Option.map (fun k (e : Ugraph.edge) -> 0.5 *. float_of_int (e.Ugraph.id * k mod 4)) c.salt
  in
  let exclude_edge = c.exclude and source = c.source and targets = c.targets in
  let reference = Ref_dijkstra.tentative_tree ?exclude_edge ?cost g ~source ~targets in
  let kernel = Dijkstra.tentative_tree ?exclude_edge ?cost g ~source ~targets in
  kernel = reference
  && (Option.is_some cost
     ||
     match (reference, Dijkstra.tree_length ?exclude_edge g ~source ~targets) with
     | None, None -> true
     | Some ids, Some um ->
       Int64.equal (Int64.bits_of_float (Dijkstra.edges_length g ids)) (Int64.bits_of_float um)
     | _ -> false)

(* Several graphs per case, run back to back on one domain's scratch:
   the sizes grow and shrink, so stale stamps and grown arrays from the
   previous graph are always in play. *)
let prop_kernel_vs_reference =
  QCheck.Test.make ~name:"dijkstra: kernel equals the reference, lengths bit-equal" ~count:400
    (QCheck.make
       ~print:(fun cs -> String.concat "\n" (List.map print_sp_case cs))
       QCheck.Gen.(list_size (int_range 1 4) sp_case_gen))
    (List.for_all kernel_matches_reference)

let test_kernel_two_domains () =
  (* Each domain has its own scratch: two domains checking the same
     cases at once must both agree with the reference throughout. *)
  let cases = QCheck.Gen.generate ~rand:(Random.State.make [| 27 |]) ~n:300 sp_case_gen in
  let run () = List.for_all kernel_matches_reference cases in
  let a = Domain.spawn run and b = Domain.spawn run in
  let ok_a = Domain.join a and ok_b = Domain.join b in
  check_bool "first domain agrees" true ok_a;
  check_bool "second domain agrees" true ok_b

(* --- Dag ----------------------------------------------------------------- *)

let chain_dag n =
  let d = Dag.create () in
  let vs = Array.init n (fun _ -> Dag.add_vertex d) in
  let es =
    Array.init (n - 1) (fun i -> Dag.add_edge d ~src:vs.(i) ~dst:vs.(i + 1) ~weight:(float_of_int (i + 1)))
  in
  (d, vs, es)

let test_dag_topo () =
  let d, vs, _ = chain_dag 4 in
  let order = Dag.topo_order d in
  let pos = Array.make 4 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  for i = 0 to 2 do
    check_bool "topological" true (pos.(vs.(i)) < pos.(vs.(i + 1)))
  done

let test_dag_cycle () =
  let d = Dag.create () in
  let a = Dag.add_vertex d and b = Dag.add_vertex d in
  let _ = Dag.add_edge d ~src:a ~dst:b ~weight:1.0 in
  let _ = Dag.add_edge d ~src:b ~dst:a ~weight:1.0 in
  check_bool "cycle detected" true
    (match Dag.topo_order d with exception Dag.Cycle _ -> true | _ -> false)

let test_dag_longest () =
  let d, vs, _ = chain_dag 4 in
  let dist = Dag.longest_from d ~sources:[ (vs.(0), 0.0) ] in
  check_float "1+2+3" 6.0 dist.(vs.(3));
  let dist = Dag.longest_from d ~sources:[ (vs.(0), 10.0) ] in
  check_float "offset carried" 16.0 dist.(vs.(3));
  let back = Dag.longest_to d ~sinks:[ (vs.(3), 0.0) ] in
  check_float "backward" 6.0 back.(vs.(0));
  let unreachable = (Dag.longest_from d ~sources:[ (vs.(3), 0.0) ]).(vs.(0)) in
  check_bool "unreachable is -inf" true (unreachable = neg_infinity)

let test_dag_longest_diamond () =
  let d = Dag.create () in
  let v = Array.init 4 (fun _ -> Dag.add_vertex d) in
  let _ = Dag.add_edge d ~src:v.(0) ~dst:v.(1) ~weight:1.0 in
  let _ = Dag.add_edge d ~src:v.(0) ~dst:v.(2) ~weight:5.0 in
  let _ = Dag.add_edge d ~src:v.(1) ~dst:v.(3) ~weight:1.0 in
  let e = Dag.add_edge d ~src:v.(2) ~dst:v.(3) ~weight:1.0 in
  (match Dag.longest_path d ~sources:[ (v.(0), 0.0) ] ~sinks:[ v.(3) ] with
  | Some (len, path) ->
    check_float "longest goes the heavy way" 6.0 len;
    Alcotest.(check (list int)) "path" [ v.(0); v.(2); v.(3) ] path
  | None -> Alcotest.fail "expected a path");
  (* Mutate the weight: longest path flips. *)
  Dag.set_weight d e 0.0;
  Dag.set_weight d e 0.0;
  let dist = Dag.longest_from d ~sources:[ (v.(0), 0.0) ] in
  check_float "after set_weight" 5.0 dist.(v.(3))

let test_dag_reachability () =
  let d, vs, _ = chain_dag 4 in
  let extra = Dag.add_vertex d in
  let fwd = Dag.reachable_from d [ vs.(1) ] in
  check_bool "downstream" true fwd.(vs.(3));
  check_bool "not upstream" false fwd.(vs.(0));
  check_bool "island" false fwd.(extra);
  let bwd = Dag.coreachable_to d [ vs.(2) ] in
  check_bool "upstream co" true bwd.(vs.(0));
  check_bool "not downstream co" false bwd.(vs.(3))

let suite =
  [ Alcotest.test_case "dsu basics" `Quick test_dsu;
    QCheck_alcotest.to_alcotest prop_dsu_vs_naive;
    Alcotest.test_case "heap order" `Quick test_heap_order;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_heap_pop_min;
    Alcotest.test_case "ugraph basics" `Quick test_ugraph_basics;
    Alcotest.test_case "ugraph connectivity" `Quick test_ugraph_connectivity;
    Alcotest.test_case "ugraph parallel edges" `Quick test_ugraph_parallel_edges;
    Alcotest.test_case "ugraph other endpoint" `Quick test_ugraph_other_endpoint;
    QCheck_alcotest.to_alcotest prop_bridges_vs_naive;
    Alcotest.test_case "bridges on path and cycle" `Quick test_bridges_path_and_cycle;
    Alcotest.test_case "bridges with parallel edges" `Quick test_bridges_parallel;
    Alcotest.test_case "dijkstra distances" `Quick test_dijkstra_distances;
    Alcotest.test_case "dijkstra exclude edge" `Quick test_dijkstra_exclude;
    Alcotest.test_case "tentative tree union" `Quick test_tentative_tree_union;
    QCheck_alcotest.to_alcotest prop_dijkstra_triangle;
    QCheck_alcotest.to_alcotest prop_kernel_vs_reference;
    Alcotest.test_case "dijkstra kernel on two domains" `Quick test_kernel_two_domains;
    Alcotest.test_case "dag topo order" `Quick test_dag_topo;
    Alcotest.test_case "dag cycle detection" `Quick test_dag_cycle;
    Alcotest.test_case "dag longest path (chain)" `Quick test_dag_longest;
    Alcotest.test_case "dag longest path (diamond)" `Quick test_dag_longest_diamond;
    Alcotest.test_case "dag reachability" `Quick test_dag_reachability ]

let () = Alcotest.run "graph" [ ("graph", suite) ]
