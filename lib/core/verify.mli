(** Independent verification of a routed design — the DRC/LVS analogue
    for the global-routing level.

    Everything here is recomputed from first principles (fresh bridge
    finding, fresh density recount, direct geometry checks) so it can
    catch bookkeeping bugs in the router itself; the test suite runs it
    on every end-to-end result, and `bgr_run verify` exposes it on the
    command line. *)

type report = {
  problems : string list;  (** hard failures: the result is not a legal routing *)
  warnings : string list;  (** suspicious but legal conditions *)
  checked_nets : int;
}

val ok : report -> bool
(** No problems. *)

val routed : Router.t -> report
(** Audit a routed (post-{!Router.run}) state:
    - every net's live graph is a tree spanning its terminals, with no
      dangling non-terminal stubs;
    - every trunk lies inside the chip, in a real channel, and crosses
      no blockage;
    - every branch sits on a feedthrough slot granted to that net, and
      no slot serves two nets;
    - the incremental density charts equal a from-scratch recount;
    - under the lumped delay model, every recorded [CL(n)] equals the
      tree capacitance;
    - recognized differential pairs have shape-identical trees
      (warning when recognition was dropped). *)

val pp : Format.formatter -> report -> unit

(** {1 State audit}

    {!routed} checks that a {e finished} result is a legal routing;
    {!audit} checks that {e any} routing state — mid-run, restored from
    a snapshot, or replayed from a journal — is internally consistent:
    every piece of derived state must agree with the primal live graphs
    it was incrementally maintained from. *)

type audit = {
  findings : Bgr_error.t list;
      (** one structured error per violated invariant (code [Internal],
          phase ["audit"]) *)
  audited_nets : int;
  repairs : string list;  (** what a [~repair:true] pass rebuilt *)
}

val audit_ok : audit -> bool

val audit : ?repair:bool -> ?measured_caps:bool -> Router.t -> audit
(** Invariants checked:
    - the incremental density charts ([d_M] and [d_m]) equal a
      from-scratch recount over the live graphs;
    - every net graph still spans its terminals (no bridge was ever
      deleted);
    - every tentative-tree edge is live, each terminal's path in the
      tree is as long as its shortest distance in the live graph, and
      (lumped model) the recorded [CL(n)] equals the tree capacitance;
    - the delay graph's lumped caps match the recorded [CL(n)], and
      cached constraint margins survive an [Sta.refresh] (margin
      staleness);
    - every recognized differential pair's edge map is a live,
      kind-preserving bijection.

    [measured_caps] (default false) says the state already went through
    {!Flow.finish}, which deliberately replaces the delay graph's caps
    with the {e measured} post-channel-routing capacitances — the
    cap-vs-[CL(n)] comparison is skipped there (margin staleness is
    still enforced).  Pass it when auditing a finished outcome; leave
    it off for mid-run or restored router states.

    The margin check refreshes the STA — a healing side effect; on a
    clean state the audit changes nothing.  With [~repair:true],
    derived-state damage is repaired via {!Router.rebuild_derived} and
    broken recognitions dropped via {!Router.drop_pair_recognition},
    then the audit reruns: the returned [findings] are what {e remains}
    (primal damage cannot be rebuilt), and [repairs] says what was
    done. *)

val pp_audit : Format.formatter -> audit -> unit

val tree_path_lengths : Ugraph.t -> source:int -> int list -> float array
(** [tree_path_lengths g ~source tree]: per vertex, the length of its
    path from [source] through the live edges of [tree] (edge ids of a
    tentative tree), [infinity] where the tree does not reach. *)
