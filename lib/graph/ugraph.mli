(** Mutable undirected multigraph with edge deletion.

    Vertices are dense integers [0..n_vertices-1]; edges carry a float
    weight and a stable integer id.  Deleting an edge marks it dead —
    ids of dead edges stay valid for queries via [is_live] but dead
    edges are skipped by all iteration.  This is the substrate for the
    per-net routing graphs [G_r(n)], whose whole life is a sequence of
    deletions (the edge-deletion routing scheme of Sec. 3). *)

type t

type edge = private {
  id : int;
  u : int;
  v : int;
  weight : float;
}

val create : ?vertex_hint:int -> ?edge_hint:int -> unit -> t

val add_vertex : t -> int
(** Allocate a fresh vertex; returns its id. *)

val n_vertices : t -> int

val n_edges_total : t -> int
(** Number of edge ids ever allocated (live + dead). *)

val n_edges_live : t -> int

val add_edge : t -> u:int -> v:int -> weight:float -> int
(** Add an undirected edge; returns its id.  Parallel edges and
    self-loops are permitted (self-loops are never useful in routing
    graphs but are not rejected here). *)

val delete_edge : t -> int -> unit
(** Mark the edge dead.  Deleting a dead edge is a no-op. *)

val is_live : t -> int -> bool

val edge : t -> int -> edge
(** Edge record by id (live or dead).  @raise Invalid_argument on an
    unknown id. *)

val other_endpoint : edge -> int -> int
(** The endpoint of the edge that is not the given vertex.
    @raise Invalid_argument if the vertex is not an endpoint. *)

val degree : t -> int -> int
(** Number of live incident edges (self-loops count twice). *)

val iter_edges : t -> (edge -> unit) -> unit
(** Iterate live edges in increasing id order. *)

val fold_edges : t -> ('a -> edge -> 'a) -> 'a -> 'a

val iter_incident : t -> int -> (edge -> unit) -> unit
(** Iterate live edges incident to a vertex, newest first. *)

val iter_incident_unchecked : t -> int -> (edge -> unit) -> unit
(** [iter_incident] without the vertex check, for the shortest-path
    kernel's inner loop: the same order (newest first, live edges only),
    no allocation.  The caller guarantees [0 <= v < n_vertices]. *)

val fold_incident : t -> int -> ('a -> edge -> 'a) -> 'a -> 'a

val live_edges : t -> edge list
(** Live edges in increasing id order. *)

val connected_within : t -> int list -> bool
(** [connected_within g vs] is true when all vertices of [vs] lie in one
    connected component of the live graph (vacuously true for [] and
    singletons). *)

val components : t -> int array
(** Component label per vertex over live edges (labels are
    representative vertex ids). *)
