(** Cross-process trace stitching.

    Under worker isolation each attempt's spans and metrics are
    recorded by the [bgr_serve worker] child process into per-attempt
    artifact files in the job's spool directory (see {!Worker.main}
    with [~obs]).  [merge] folds one such attempt back into the
    daemon's process-global tracer and registry, guided by the
    worker's obs summary json (carried by the BGRW1 [Obs_summary]
    frame):

    {ul
    {- spans from the worker's JSONL trace are re-based from the
       worker's trace epoch onto the daemon's and re-emitted through
       {!Obs.Trace.emit_foreign}, keeping the worker's pid, span ids,
       parent links and trace id — a Perfetto load of the daemon's
       chrome trace then shows the daemon job span and the worker's
       phase spans on one timeline;}
    {- the worker's metrics file ({!Obs.Metrics.render_json}) merges
       additively through {!Obs.Metrics.merge_json}, so worker-side counters and
       histograms reappear in the daemon's [stats] answers and [.prom]
       file.}}

    Runs on the executor domain after supervision ends, under the Obs
    failure policy: missing files, torn lines and incompatible
    families degrade to {!Obs.warnings}, never an error. *)

type report = { st_spans : int  (** spans re-emitted *); st_series : int  (** metric series merged *) }

val merge : dir:string -> summary_json:string -> unit -> report
(** [merge ~dir ~summary_json ()] stitches one worker attempt whose
    artifacts live in spool job directory [dir].  Never raises. *)
