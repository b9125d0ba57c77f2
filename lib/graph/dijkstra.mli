(** Shortest-path-union ("tentative") trees over the live edges of a
    [Ugraph].

    The router estimates every net's wire length with "the shortest
    paths from the driving terminal vertex to all other terminals ...
    The union of all paths is the tentative tree" (Sec. 3.2).  The
    optional [exclude_edge] implements the what-if evaluation of
    [LM(e,P)]: a tentative tree "assuming the deletion of e".

    Both functions run one search kernel on per-domain scratch; see the
    implementation's header for why it equals a full Dijkstra search
    bit for bit.  [cost] (default: the edge weight) lets callers price
    congestion into the search, as the sequential baseline router does;
    it must be non-negative and must not itself build a tentative
    tree. *)

val tentative_tree :
  ?exclude_edge:int ->
  ?cost:(Ugraph.edge -> float) ->
  Ugraph.t ->
  source:int ->
  targets:int list ->
  int list option
(** Union of the shortest-path edge sets from [source] to every target,
    deduplicated, in increasing id order.  [None] if any target is
    unreachable.  Ties between equal-cost paths go to the edge that
    first strictly improved the vertex's distance. *)

val tree_length : ?exclude_edge:int -> Ugraph.t -> source:int -> targets:int list -> float option
(** [edges_length] of [tentative_tree] (priced by the edge weights),
    bit for bit, without building the list. *)

val edges_length : Ugraph.t -> int list -> float
(** Total weight of the given edge ids, summed in list order from 0.0. *)
