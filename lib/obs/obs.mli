(** First-class observability for the routing pipeline: a span-based
    tracer ({!Trace}) and a metrics registry ({!Metrics}), both
    process-global, zero-dependency, and {e off} by default.

    Everything in this module is strictly read-only with respect to
    routing state.  Turning observability on or off must never change
    a routing decision: a run with tracing enabled produces a
    [deletion_hash] byte-identical to the same run without it (this is
    asserted by [test/test_obs.ml]).

    {2 Ownership}

    The tracer and the registry belong to the {e orchestrating} domain,
    the same discipline [Par.assert_orchestrator] enforces for the
    write-ahead journal.  Hot-path record calls ({!Trace.span},
    {!Metrics.inc}, {!Metrics.observe}, ...) issued from inside a pool
    worker are {e silently dropped} rather than raised on, because
    benchmark suites legitimately route whole cases inside workers;
    rendering and configuration, however, are orchestrator-only.

    {2 Failure policy}

    Observability must never fail a run.  A sink whose write raises
    (disk full, unwritable path, injected [obs.sink] fault) is closed
    and replaced by an entry in {!warnings}; routing continues. *)

val enabled : unit -> bool
(** True between {!enable} and {!disable}.  All record calls are
    no-ops while disabled. *)

val enable : unit -> unit
(** Turn recording on.  The first call fixes the trace epoch: span
    timestamps are reported relative to it. *)

val disable : unit -> unit

val reset : unit -> unit
(** Clear all recorded spans, all metric series (registered families
    survive, their series restart from zero), all warnings, and the
    trace epoch.  Orchestrator-only.  Sinks are closed first. *)

val now_s : unit -> float
(** Monotonicized wall clock in seconds (never steps backwards), or
    the injected test clock. *)

val set_clock_for_tests : (unit -> float) option -> unit
(** Replace the clock with a deterministic one ([None] restores the
    real clock).  Golden-output tests use a step counter here. *)

val set_worker_probe : (unit -> bool) -> unit
(** Install the "am I inside a pool worker?" probe.  [Par] installs
    [Par.in_worker] at module-load time; the indirection keeps [Obs]
    free of a dependency cycle with [Par]. *)

val warnings : unit -> string list
(** Degradation warnings (failed sinks, unwritable metric files), in
    the order they occurred. *)

val write_file_atomic : string -> string -> unit
(** Atomic durable rewrite in the Persist discipline: write
    [path ^ ".tmp"], flush, [fsync] the temp file, rename.  A reader
    (or a post-power-loss boot) observes either the previous content
    or the new one, never a zero-length or partial file.  The one
    atomic writer: the [--metrics] scrape-target rewrites, the
    flight-recorder dump, and the run-directory and spool files
    (behind their structured-error wrappers).  Raises [Sys_error] when
    the file cannot be written. *)

val warn : ('a, unit, string, unit) format4 -> 'a
(** Append to {!warnings}. *)

module Trace : sig
  (** Span-based tracing.  Spans nest: {!span} pushes a scope, runs the
      thunk, pops and records on the way out (exceptions included).
      Completed spans are kept in memory (capped) for {!completed} /
      report tables, and streamed to any open sinks. *)

  type attr = Str of string | Int of int | Float of float | Bool of bool

  val attr_to_string : attr -> string

  type span = {
    sp_name : string;
    sp_start_us : float;  (** microseconds since the trace epoch *)
    sp_dur_us : float;  (** 0 for instant events *)
    sp_depth : int;  (** nesting depth at the time the span opened *)
    sp_id : int;  (** process-local span ordinal, 1-based *)
    sp_parent : int;  (** enclosing span's id, 0 for roots *)
    sp_pid : int;  (** recording process, see {!set_pid} (default 1) *)
    sp_attrs : (string * attr) list;
  }

  val span : ?attrs:(string * attr) list -> string -> (unit -> 'a) -> 'a
  (** [span name f] runs [f ()] inside a scope named [name].  While
      disabled or on a pool worker this is exactly [f ()]. *)

  val instant : ?attrs:(string * attr) list -> string -> unit
  (** A zero-duration event at the current time. *)

  val add_attr : string -> attr -> unit
  (** Attach an attribute to the innermost open span (no-op when there
      is none, when disabled, or on a worker). *)

  val completed : unit -> span list
  (** Completed spans and instants in completion order (a parent span
      therefore follows its children).  Capped at an internal limit;
      once full, further spans still reach the sinks but are not
      retained here. *)

  val to_chrome_file : string -> unit
  (** Open a Chrome [trace_event] JSON sink (an array of ["X"] complete
      events and ["i"] instants, loadable in Perfetto or
      [chrome://tracing]).  Failure to open degrades to a warning. *)

  val to_jsonl_file : string -> unit
  (** Open a line-oriented JSONL sink: one JSON object per completed
      span.  Failure to open degrades to a warning.  Opening a sink of
      a kind that is already open closes the previous one and records a
      warning (its file may end mid-stream). *)

  val close_sinks : unit -> unit
  (** Flush and close both sinks (writes the closing ["]"] of the
      Chrome array).  Idempotent. *)

  (** {2 Cross-process stitching}

      A merged multi-process timeline keys spans by [(pid, id)].  The
      supervising daemon hands each worker a trace id and the id of its
      own [serve.worker] span; the worker records with its real pid and
      links its roots under that parent, and the daemon re-emits the
      worker's spans through {!emit_foreign}. *)

  val set_pid : int -> unit
  (** Set the pid recorded on subsequently emitted spans.  Defaults to
      1 (deterministic for golden tests); daemons and workers set their
      real [Unix.getpid ()] when stitching is on. *)

  val set_trace_id : string option -> unit
  (** Set (or clear) the ambient trace id.  While set, every emitted
      span carries a [trace_id] attribute; the daemon scopes it per
      job, the worker inherits it via argv. *)

  val trace_id : unit -> string option

  val set_parent_span : int option -> unit
  (** Link subsequently opened depth-0 spans under a span of another
      process (by that span's id).  Nested spans are unaffected. *)

  val current_span_id : unit -> int option
  (** Id of the innermost open span, if any (the supervisor captures
      its [serve.worker] span id here to hand to the worker). *)

  val epoch_s : unit -> float
  (** Absolute wall-clock seconds of the trace epoch ([nan] before the
      first {!Obs.enable}).  Epoch deltas re-base foreign span
      timestamps during stitching. *)

  val emit_foreign : span -> unit
  (** Record a span captured by another process as-is: its id, parent,
      pid and (already re-based) timestamps are preserved.  No-op while
      disabled. *)
end

module Metrics : sig
  (** A Prometheus-flavoured registry: named families of counters,
      gauges, and fixed-bucket histograms, each family carrying
      labelled series.  Families are registered once at module load
      (registration is idempotent; re-registering with a different
      kind, bucket layout, or label set raises [Bgr_error.Error
      Internal]).  Mutations are dropped while disabled or on a pool
      worker; rendering is orchestrator-only. *)

  type family

  val counter : ?help:string -> ?labels:string list -> string -> family
  (** Monotonically increasing total.  [labels] declares the exact
      label-name set every series of this family must carry. *)

  val gauge : ?help:string -> ?labels:string list -> string -> family

  val histogram :
    ?help:string -> ?labels:string list -> ?buckets:float array -> string -> family
  (** [buckets] are the finite upper bounds, strictly increasing; a
      [+Inf] bucket is implicit.  The default layout suits latencies
      in seconds (100µs .. 10s, roughly logarithmic). *)

  val inc : ?labels:(string * string) list -> ?by:float -> family -> unit
  (** Counter only; [by] defaults to 1 and must be >= 0. *)

  val set : ?labels:(string * string) list -> family -> float -> unit
  (** Gauge only. *)

  val observe : ?labels:(string * string) list -> family -> float -> unit
  (** Histogram only. *)

  val value : ?labels:(string * string) list -> family -> float option
  (** Current value of a counter/gauge series; [None] if the series
      has never been touched. *)

  val histogram_snapshot :
    ?labels:(string * string) list -> family -> (float array * int array * float * int) option
  (** [(bounds, per-bucket counts incl. +Inf, sum, count)] of a
      histogram series.  [counts] are per-bucket (not cumulative). *)

  val series : family -> ((string * string) list * float) list
  (** Label-set/value pairs of every live series of a counter or gauge
      family, in first-use order.  Histograms yield their [_sum]. *)

  val render_prometheus : unit -> string
  (** Text-exposition format: [# HELP] / [# TYPE] per family, then one
      sample per series; histograms render cumulative [le] buckets plus
      [_sum] and [_count].  Families registered but never touched still
      render their header lines, so the catalogue is greppable even on
      runs that never exercise a subsystem. *)

  val render_json : unit -> string
  (** The whole registry as one compact {!Qjson} document (single
      line): [{"metrics":[{"name","kind","series":[...]}]}], a
      counter/gauge series being [{"labels","value"}] and a histogram
      series [{"labels","count","sum","buckets":[[bound,n],...],
      "overflow"}].  The [stats] answer, and the metrics artifact a
      worker writes just before exit.  Floats use {!Qjson}'s exact
      spelling, so {!merge_json} reads them back bit for bit. *)

  val merge_json : ?source:string -> string -> int
  (** Merge another process's {!render_json} into this registry:
      counter series and histogram buckets/sums/counts {e add}, gauges
      take the merged value, unknown families are registered on the
      fly (without help text; a labelled family with no series carries
      nothing to merge and is skipped).  Returns the number of series
      merged.  Never raises: a document that does not decode merges as
      zero series, and a kind/label/bucket mismatch skips that family
      or series; each degrades to an {!Obs.warnings} entry tagged with
      [source]. *)
end
