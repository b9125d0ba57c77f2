(** Crash-forensics bundle assembler: correlate every artifact a run or
    spool-job directory left behind — the flight recorder dump
    ([BGRF1]), the deletion journal tail, the quality log tail, the
    spool [JOB] manifest with its kill history, [RESULT]/[ERROR]
    verdict files and the per-attempt observability summaries — into
    one report with a single classifying {e verdict} line.

    The analyzer is deliberately forgiving: any artifact may be
    missing, torn or unparseable, and each such condition becomes a
    {e finding} rather than an error.  Only a directory that does not
    exist is an [Error].  The spool [JOB] manifest is read with
    {!Job_manifest.parse_job}, the serving layer's own reader; a
    manifest it rejects is a finding that carries the parse error. *)

(** One artifact the analyzer looked for. *)
type artifact = {
  a_file : string;  (** filename relative to the directory *)
  a_kind : string;  (** flight / journal / qlog / manifest / ... *)
  a_present : bool;
  a_bytes : int;  (** 0 when absent *)
  a_note : string;  (** salvage or parse note; [""] when clean *)
}

type report = {
  p_dir : string;
  p_verdict : string;
      (** machine-readable slug: [hang-in-<phase>], [oom-during-<phase>],
          [hard-deadline-in-<phase>], [canceled-in-<phase>],
          [signaled-in-<phase>], [deadline-stop-in-<phase>],
          [fault-stop-in-<phase>], [crash-after-commit-<K>],
          [torn-journal], [clean] or [inconclusive] *)
  p_headline : string;  (** one human sentence behind the verdict *)
  p_findings : string list;  (** supporting evidence, most damning first *)
  p_last_phase : string;  (** last phase any artifact witnessed; [""] unknown *)
  p_last_pass : int;  (** [0] outside improvement passes or unknown *)
  p_deletions : int;  (** best-known committed deletions; [-1] unknown *)
  p_worst_margin_ps : float;  (** last observed; [nan] unknown *)
  p_flight : Flight.dump option;
  p_flight_file : string;  (** [""] when no dump was found *)
  p_journal : Journal.read_result option;
  p_qlog : Qlog.read_result option;
  p_job : Job_manifest.job option;  (** present only for spool job directories *)
  p_error_code : string;  (** [code] member of [ERROR]; [""] when none *)
  p_has_result : bool;  (** a [RESULT] verdict file exists *)
  p_artifacts : artifact list;
}

val analyze : dir:string -> (report, Bgr_error.t) result
(** Read everything the directory offers and classify.  [Error] only
    when [dir] is missing or not a directory. *)

val merged_events : report -> Flight.event list
(** All flight events across rings, oldest first (empty without a
    dump) — the timeline the SVG and the verdict classifier walk. *)

val to_json : report -> Qjson.t
(** The [postmortem.json] image: verdict, evidence, artifact survey
    and per-source tails, machine-checkable. *)

val timeline_svg : ?window_s:float -> report -> string
(** Self-contained SVG of the last [window_s] (default 30) seconds of
    flight events, one lane per event family, the dump moment at the
    right edge — "what was the process doing when it died".  Renders a
    placeholder panel when there is no flight dump. *)
