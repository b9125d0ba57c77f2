(** A tournament (winner) tree over a fixed row of leaves.

    Leaves [0 .. n-1] are either occupied or empty.  Every internal
    node holds the winning leaf of its subtree: the left child's winner
    unless [cmp right left < 0].  That is the linear scan's rule (a later
    leaf replaces the best so far only when strictly better), so with a
    transitive [cmp] the root holds exactly the scan's winner, ties
    going to the leftmost leaf.

    Changing a leaf costs one comparison per ancestor.  Leaves are
    queued with {!set} and their ancestors recomputed in one bottom-up
    sweep by {!update}, so an ancestor shared by several changed leaves
    is recomputed once. *)

type t

val create : int -> t
(** [create n]: [n] leaves, all empty. *)

val set : t -> int -> occupied:bool -> unit
(** Record leaf [i]'s state and queue its ancestors for {!update}.
    Queue a leaf whenever its key may have changed, even if it stays
    occupied. *)

val update : t -> cmp:(int -> int -> int) -> int
(** Recompute the ancestors of every leaf queued since the last
    update, each once, bottom-up.  [cmp] compares two occupied leaves.
    Returns the number of internal nodes recomputed. *)

val winner : t -> int
(** The root's winner; [-1] when every leaf is empty.  Meaningful after
    {!update}. *)

val runner_up : t -> cmp:(int -> int -> int) -> int
(** The best leaf other than the winner: the best of the winners of the
    siblings along the winner's path to the root, O(log n) comparisons.
    [-1] when the winner is the only occupied leaf (or there is none). *)
