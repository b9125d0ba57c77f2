(** The per-net routing graph [G_r(n)] of Fig. 3.

    Vertices are circuit terminals or physical points; edges are

    - {e correspondence} edges (zero weight) tying a terminal to each of
      its candidate physical positions (two channels for a cell pin,
      several columns for an external terminal);
    - {e trunk} edges: horizontal channel segments between consecutive
      net positions in one channel;
    - {e branch} edges: the assigned feedthrough crossing a cell row.

    The graph is built maximally redundant and handed to the
    edge-deletion router; dangling non-terminal stubs are pruned at
    build time so that, once every remaining edge is a bridge, the
    graph is exactly a Steiner tree over the net's terminals. *)

type position = { channel : int; x : int }

type vertex_kind =
  | Terminal of Netlist.endpoint
  | Position of position

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
  mutable geo_um : float array;  (** geometric length per edge id *)
  terminals : int list;  (** terminal vertex ids *)
  driver : int;  (** the driving endpoint's terminal vertex *)
  cap_per_um : float;  (** capacitance per um at this net's width *)
}

exception Unroutable of string

val build : ?jog_cost:(int -> float) -> Floorplan.t -> Feedthrough.assignment -> net:int -> t
(** [jog_cost channel] (default 0) is the expected in-channel vertical
    descent, in micrometres, of a connection point entering that
    channel.  It is added to the {e weight} (routing cost / effective
    length) of correspondence edges (one pin) and branch edges (a pin
    in each adjacent channel), so tentative trees price channel entry
    like the post-channel-routing metrology does; the {e geometric}
    length of those edges excludes it.
    @raise Unroutable when the candidate graph cannot connect all
    terminals (a feedthrough assignment bug). *)

val edge_kind : t -> int -> edge_kind

val is_trunk : t -> int -> bool

val density_locus : t -> int -> int * Interval.t
(** [(channel, interval)] used for the density parameters of any edge:
    a trunk's own channel and span; a branch or correspondence edge
    gets a single-column interval at its attachment (a branch uses its
    row's lower channel). *)

val prune_dangling : t -> on_delete:(Ugraph.edge -> unit) -> unit
(** Repeatedly delete the last edge of any degree-<=1 non-terminal
    vertex, invoking the callback on each deletion (for density
    bookkeeping). *)

val tree_capacitance : t -> edge_ids:int list -> float
(** Effective wiring capacitance [CL(n)] (fF) of a set of edges at the
    net's pitch width, computed from edge weights (jog surcharges
    included). *)

val geometric_length_um : t -> edge_ids:int list -> float
(** Physical length of the edges (trunks, row crossings), jog
    surcharges excluded. *)

val tentative_tree :
  ?exclude_edge:int -> ?cost:(Ugraph.edge -> float) -> t -> int list option
(** Shortest-path union from the driving terminal to all terminals
    (Sec. 3.2); [None] when [exclude_edge] would disconnect them.
    [cost] overrides the edge weights (e.g. to price congestion for the
    sequential baseline). *)

val tentative_capacitance : t -> exclude_edge:int -> float option
(** [tree_capacitance] of [tentative_tree ~exclude_edge], bit for bit,
    without building the edge list: [CL(n)] assuming the deletion of
    the edge (the [LM(e,P)] what-if). *)

val pp : Floorplan.t -> Format.formatter -> t -> unit
(** Render the graph structure (for the Fig. 3 example). *)
