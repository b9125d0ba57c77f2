(** End-to-end flow: floorplan -> feedthrough assignment (with feed-cell
    insertion) -> global routing -> channel routing -> measurement —
    the whole of Fig. 2 plus the Table 2 metrology.

    [timing_driven = false] reproduces the paper's "without
    constraints" baseline: net ordering falls back to net ids, the
    router sees no STA, and the constraints are used only to {e
    measure} the resulting delays. *)

type input = {
  netlist : Netlist.t;
  dims : Dims.t;
  n_rows : int;
  width : int;
  cells : Floorplan.placed list;
  slots : (int * int * int) list;  (** initial (designer) feed slots *)
  blockages : (int * int * int) list;  (** (channel, x_lo, x_hi) closed ranges *)
  constraints : Path_constraint.t list;
}

type measurement = {
  m_delay_ps : float;  (** worst critical-path delay after channel routing; [nan] with no constraints *)
  m_area_mm2 : float;
  m_length_mm : float;  (** total wiring (horizontal + vertical) *)
  m_cpu_s : float;  (** assignment + routing + channel routing CPU time *)
  m_violations : int;  (** constraints still violated at the end *)
  m_margin_ps : float;  (** worst final margin; [infinity] with no constraints *)
  m_lower_bound_ps : float;  (** HPWL delay lower bound; [nan] with no constraints *)
  m_chip_width : int;  (** pitches, after feed-cell insertion *)
  m_tracks : int array;  (** channel heights *)
  m_insert_rounds : int;
  m_deletions : int;
  m_recognized_pairs : int;
  m_channel_doglegs : int;
  m_channel_violations : int;
  m_stopped_because : string;
      (** {!Router.stop_reason_string} of the run — ["finished"] unless
          a budget or an injected fault cut the router short *)
  m_domains : int;  (** effective scoring-domain count ([1] = sequential) *)
  m_par_warnings : string list;
      (** pool degradation warnings (worker deaths, spawn failures) *)
  m_deletion_hash : int;
      (** {!Router.deletion_hash} of the final state — the determinism
          fingerprint the crash-recovery CI compares *)
}

type outcome = {
  o_router : Router.t;
  o_floorplan : Floorplan.t;
  o_sta : Sta.t option;
  o_channels : Channel_router.result array;
  o_measurement : measurement;
  o_run_report : Router.run_report;
}

type algorithm =
  | Concurrent_edge_deletion  (** the paper's scheme (Fig. 2) *)
  | Sequential_net_at_a_time
      (** baseline: congestion-priced Dijkstra per net in static-slack
          order, no improvement phases — the router class the paper's
          related work routes with *)

type channel_algorithm =
  | Left_edge  (** constrained left-edge with doglegs (default) *)
  | Left_edge_biased  (** left-edge with pin-side track bias (extension) *)
  | Greedy  (** Rivest-Fiduccia-style column scan *)

val run :
  ?options:Router.options ->
  ?timing_driven:bool ->
  ?algorithm:algorithm ->
  ?channel_algorithm:channel_algorithm ->
  ?budget:Budget.t ->
  ?on_quality:(Router.quality_sample -> unit) ->
  input ->
  outcome
(** [timing_driven] defaults to [true], [algorithm] to
    [Concurrent_edge_deletion], [channel_algorithm] to [Left_edge].
    [budget] (default unlimited) caps the global-routing improvement
    phases; whatever happens, channel routing and metrology always run
    on a complete set of net trees (see {!Router.run}).  [on_quality]
    is installed as the router's quality hook for the duration of the
    run and additionally receives one final post-metrology sample
    (phase ["metrology"], measured capacitances) — recording never
    changes the routing result (see {!Router.set_quality_hook}). *)

val floorplan_of_input : input -> Floorplan.t
(** The pre-insertion floorplan (for inspection and examples). *)

val channel_segments : Router.t -> Channel_router.seg list array
(** The channel router's input for every channel, from the router's
    current trees ({!Router.channel_nets}), indexed by channel. *)

(** {1 Split entry points}

    {!run} = {!prepare} + [Router.run] + {!finish}.  The split exists
    for the crash-recovery path ([lib/persist]): a resume must build
    the router over the identical floorplan and feedthrough assignment
    ({!prepare} is deterministic), restore the journaled state into it,
    continue the run, and only then do channel routing and metrology. *)

type prepared
(** Everything {!prepare} computed besides the router: the
    post-insertion floorplan, the delay graph and measurement STA, the
    net order and the CPU-clock origin. *)

val prepare :
  ?options:Router.options -> ?timing_driven:bool -> input -> prepared * Router.t
(** Floorplan, delay graph, net ordering, feed insertion, STA and
    router construction — everything before the first deletion. *)

val finish :
  ?channel_algorithm:channel_algorithm ->
  ?on_quality:(Router.quality_sample -> unit) ->
  prepared ->
  Router.t ->
  Router.run_report ->
  outcome
(** Channel routing and final metrology over the router's current
    trees.  [on_quality] receives the final post-metrology quality
    sample (phase ["metrology"]); a raising callback is swallowed. *)
