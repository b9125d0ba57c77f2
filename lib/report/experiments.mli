(** The experiment harness regenerating every table and figure of the
    paper's evaluation (DESIGN.md Sec. 4), printed by
    `bin/bgr_run.exe` ([tables], [density], [ablation]).

    Absolute numbers differ from the paper (the circuits are synthetic
    stand-ins, the machine is not a SPARCstation 2); the {e shape} —
    who wins, by roughly what factor — is what EXPERIMENTS.md records
    against the paper's rows. *)

type run = {
  case : Suite.case;
  constrained : Flow.measurement;
  unconstrained : Flow.measurement;
}

val run_case : ?domains:int -> Suite.case -> run
(** Route the case both with and without constraints.  [domains] is
    passed to {!Router.options.domains} ([0] = auto). *)

val run_suite : ?cases:Suite.case list -> ?domains:int -> unit -> run list
(** Defaults to [Suite.all ()].  With more than one domain ([0] = auto
    resolves via [BGR_DOMAINS] / available cores) the independent
    (case, with/without-constraints) measurements are routed
    concurrently on the shared domain pool; results are identical to a
    sequential run apart from the CPU-time column. *)

val table1 : Suite.case list -> Table.t
(** "Test bipolar circuits": cells, nets, constraints per case. *)

val table2 : run list -> Table.t * Table.t
(** "Experimental results": delay / area / length / CPU, with and
    without constraints. *)

val table3 : run list -> Table.t
(** "Difference from the lower bound", plus the average reduction (the
    paper's 17.6% headline) appended as a summary row. *)

val average_reduction_pct : run list -> float
(** Mean over cases of [(unconstrained - constrained) / lower_bound],
    in percent — the headline metric. *)

val fig4 : Flow.outcome -> channel:int -> string
(** ASCII rendering of a channel's [d_M]/[d_m] chart with the
    C/NC parameters (the paper's Fig. 4). *)

val fig4_of_density : Density.t -> channel:int -> string
(** Same, from a live density state (useful mid-routing, when
    [d_M > d_m]). *)

val fig4_worst_channel : Flow.outcome -> int
(** The most congested channel — the natural Fig. 4 subject. *)

type ablation_row = {
  ab_name : string;
  ab_delay_ps : float;
  ab_area_mm2 : float;
  ab_length_mm : float;
  ab_violations : int;
}

val ablation_a1 : Suite.case -> Table.t
(** Selection-criteria ordering: paper order (delay first) vs. the
    area-phase ordering used throughout. *)

val ablation_a3 : Suite.case -> Table.t
(** CL estimator: tentative tree (Sec. 3.2) vs. star/half-perimeter. *)

val ablation_a4 : Suite.case -> Table.t * float
(** Delay model during routing: lumped capacitance (Eq. 1) vs. the
    Elmore RC extension.  The float is the worst per-net ratio of
    Elmore wire delay over the lumped [CL*Td] delay on the lumped run's
    final trees — close to 1 in the bipolar regime, which is the
    paper's justification for the capacitance-only model. *)

val ablation_a5 : Suite.case -> Table.t
(** Routing scheme: the paper's concurrent edge deletion vs. a
    sequential congestion-priced net-at-a-time baseline (the related
    work the paper contrasts with). *)

val ablation_a6 : Suite.case -> Table.t
(** Detailed-routing substrate: left-edge vs. greedy channel router —
    how sensitive the Table 2 metrology is to the channel router
    choice. *)

val ablation_a8 : Suite.case -> Table.t
(** Pin-side track bias in the left-edge channel router (an extension
    beyond the paper): same track counts, shorter vertical jogs. *)

val ablation_a7 : unit -> Table.t
(** Clock pitch width vs. clock skew (Elmore sink-delay spread) — the
    quantitative version of Sec. 4.2's motivation for multi-pitch
    wires. *)
