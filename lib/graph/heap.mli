(** Minimal binary min-heap of [(float key, int payload)] pairs.

    Supports the lazy-deletion discipline used by [Dijkstra]: stale
    entries are pushed freely and filtered by the caller on pop.  The
    order in which equal keys come out is part of every deletion hash
    (it picks the parent edge among tied shortest paths), so every push
    and every pop share one sift. *)

type t

val create : unit -> t

val is_empty : t -> bool

val clear : t -> unit
(** Drop every entry, keeping the storage for reuse. *)

val push : t -> float -> int -> unit

val pop : t -> (float * int) option
(** Remove and return the minimum-key entry. *)

val push_dist : t -> float array -> int -> unit
(** [push_dist t dist v] is [push t dist.(v) v] without allocating. *)

val pop_min : t -> int
(** Remove the minimum entry and return its payload: [pop] without the
    key, option and tuple, so without allocating.
    @raise Invalid_argument when empty. *)

val size : t -> int
