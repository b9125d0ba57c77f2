(** The spool's [JOB] manifest, format [bgr-job 1] (docs/FORMATS.md):
    the record, its writer and its one reader.  The serving layer
    ({!Spool}) writes and reads it; the forensics layer
    ([Postmortem]) reads it from dead and quarantined job directories.
    Both sit above this library. *)

type job = {
  j_id : string;
  j_timing_driven : bool;
  j_deadline_ms : int option;
  j_attempts : int;  (** attempts already started (across daemon restarts) *)
  j_kills : int;  (** worker processes killed on this job (hang/OOM/signal) *)
  j_last_kill : string;  (** latest kill reason, [""] when none *)
  j_kill_history : string list;
      (** every kill reason in order, oldest first ([j_last_kill] is
          its last element); persisted in the manifest's optional
          [kill_history] line, reset by [Spool.revive] *)
}

val job_string : job -> string
(** The manifest text.  [kills], [last_kill] and [kill_history] are
    written only once the job has been killed; a deadline of [None] is
    written as [deadline_ms 0]. *)

val parse_job : ?file:string -> string -> (job, Bgr_error.t) result
(** Strict parse: the [bgr-job 1] magic line and the [id],
    [timing_driven], [deadline_ms] and [attempts] fields are required,
    the kill fields optional, unknown keys ignored.  A missing field,
    a malformed value or a line without a value is a [Parse] error
    naming [file]. *)
