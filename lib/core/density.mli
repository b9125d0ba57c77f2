(** Channel density charts and the eight density parameters of Sec. 3.3
    (Fig. 4).

    Per channel [c] and column [x] the router tracks

    - [d_M(c,x)]: pitch-weighted count of {e all} live trunk edges
      covering [x] — an upper bound on the local density;
    - [d_m(c,x)]: the same count restricted to {e bridge} trunks, whose
      deletion is impossible — a lower bound that "cannot be
      recovered".

    Channel aggregates [C_M, NC_M, C_m, NC_m] are cached and
    recomputed lazily; every mutation bumps the channel's revision so
    per-edge caches elsewhere can invalidate.  Per-edge interval
    parameters [D_M, ND_M, D_m, ND_m] take the maximum (and the count
    of columns attaining it) of the chart over the edge's interval.

    Every mutation also records the column span it covered, so an
    incremental consumer ({!take_touched}) can tell which per-edge
    parameters may have moved without rescanning every edge. *)

type t

val create : n_channels:int -> width:int -> t

val width : t -> int

val n_channels : t -> int

val add_trunk : t -> channel:int -> span:Interval.t -> w:int -> bridge:bool -> unit
(** Record a live trunk of pitch width [w]; [bridge] adds it to the
    [d_m] chart as well. *)

val remove_trunk : t -> channel:int -> span:Interval.t -> w:int -> bridge:bool -> unit

val set_bridge : t -> channel:int -> span:Interval.t -> w:int -> bool -> unit
(** Flip only the bridge ([d_m]) contribution of an already-recorded
    trunk. *)

val clear : t -> unit
(** Zero both charts of every channel (bumping each revision) — the
    first step of rebuilding the density state from the net graphs
    ({!Router.rebuild_derived} / [Verify.audit ~repair]). *)

val take_touched : t -> (int * Interval.t list) list
(** The channels mutated since the previous call, each with spans that
    cover every column a mutation touched (after 16 spans a channel's
    record collapses into their hull), and forget them.  An edge whose
    span meets none of its channel's spans has unchanged
    [D_M, ND_M, D_m, ND_m]. *)

val cM : t -> channel:int -> int
(** Maximum of [d_M] over the channel — the track upper bound. *)

val ncM : t -> channel:int -> int
(** Number of columns attaining [cM]. *)

val cm : t -> channel:int -> int

val ncm : t -> channel:int -> int

val revision : t -> channel:int -> int

val edge_params : t -> channel:int -> span:Interval.t -> int * int * int * int
(** [(D_M, ND_M, D_m, ND_m)] over the interval: the chart maxima
    restricted to the span and the counts of span columns attaining
    them.  All zero on an empty span. *)

val dM_at : t -> channel:int -> x:int -> int

val dm_at : t -> channel:int -> x:int -> int

val tracks_estimate : t -> int array
(** [C_M] per channel — the channel-height estimate before detailed
    routing. *)

val chart : t -> channel:int -> (int * int) array
(** [(d_M, d_m)] per column, for Fig.-4-style rendering. *)
