(** Slow reference for [Dijkstra]: the plain full-search algorithm. *)

type result = {
  dist : float array;  (** [infinity] when unreachable *)
  parent_edge : int array;  (** entering edge id on a shortest path; -1 at source / unreachable *)
}

val shortest_paths :
  ?exclude_edge:int -> ?cost:(Ugraph.edge -> float) -> Ugraph.t -> source:int -> result

val path_edges : Ugraph.t -> result -> target:int -> int list option
(** Edge ids of the shortest path from source to [target], target side
    first; [None] when unreachable. *)

val tentative_tree :
  ?exclude_edge:int ->
  ?cost:(Ugraph.edge -> float) ->
  Ugraph.t ->
  source:int ->
  targets:int list ->
  int list option
(** Union of the shortest-path edge sets, in increasing id order;
    [None] if any target is unreachable. *)
