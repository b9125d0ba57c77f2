(** The black-box flight recorder: a fixed-size, preallocated
    per-domain ring buffer of compact binary events, always on, meant
    to capture the {e last moments} before an abnormal exit.

    Unlike the tracer and the metrics registry ({!Obs}), the recorder
    is {e not} gated on [Obs.enable]: it records from process start, in
    every domain, so a crash that never asked for observability still
    leaves evidence.  The cost contract is strict:

    {ul
    {- {b no allocation per event} — {!record} takes only immediate
       ints and writes into a preallocated byte arena;}
    {- {b no locks on record} — each domain owns its ring (via
       [Domain.DLS]); the global ring registry is only touched once per
       domain (lock-free CAS) and at dump time;}
    {- {b no influence on routing} — the recorder never reads or
       writes routing state; [deletion_hash] is bit-identical with the
       recorder on or off (asserted in test/test_obs.ml).}}

    A {e dump} serializes every ring as a CRC-framed [BGRF1] file (see
    docs/FORMATS.md), written on abnormal exits ([Bgr_error]
    escalation, deadline stop, fatal signal, watchdog kill) and on
    demand (SIGQUIT, the daemon's [dump] opcode).  Dumping is
    best-effort and never raises: a failed dump must not turn a crash
    report into a second crash.

    The postmortem reader follows {!Frame.read_string}'s salvage rules:
    a damaged final frame is a torn tail (truncated away with a
    warning); damage anywhere earlier is a structured [Parse] error. *)

val magic : string
(** ["BGRF1\n"] — file magic and format version. *)

val default_filename : string
(** ["flight.bgrf"] — the conventional dump name inside a run
    directory. *)

val attempt_filename : attempt:int -> string
(** ["flight-aN.bgrf"] — per-attempt dump name inside a spool job
    directory, keyed like the other worker artifacts. *)

(** {1 Event vocabulary}

    Every event is 24 bytes: a kind byte, three small integer
    arguments [a] (u8), [b] (u16), [c] (u32), one wide argument [d]
    (i64) and a timestamp (µs since the recorder epoch).  Field
    semantics per kind: *)

val k_deletion : int
(** [1] — a committed deletion: [a] phase, [b] winning criterion,
    [c] net, [d] = [(edge lsl 32) lor (deletions_before land 0xFFFFFFFF)]. *)

val k_phase : int
(** [2] — phase transition: [a] phase, [b] 0 = enter, 1 = mark
    (checkpointed boundary), [d] cumulative deletions. *)

val k_pass : int
(** [3] — improvement-pass boundary: [a] phase, [b] pass ordinal,
    [d] cumulative deletions. *)

val k_journal_sync : int
(** [4] — journal fsync barrier: [d] bytes on disk after the sync. *)

val k_snapshot : int
(** [5] — atomic snapshot replace: [d] snapshot bytes written. *)

val k_pool_round : int
(** [6] — pool round boundary: [b] 0 = begin, 1 = end, [c] round
    ordinal, [d] chunk count. *)

val k_serve_op : int
(** [7] — daemon request decoded: [a] wire opcode. *)

val k_heartbeat : int
(** [8] — worker heartbeat observed: [a] phase, [b] pass,
    [c] deletions, [d] worst margin via {!margin_encode}. *)

val k_retry : int
(** [9] — retry decision: [a] attempt ordinal, [c] backoff ms. *)

val k_stop : int
(** [10] — router stop: [a] phase, [b] 1 = deadline, 2 = injected
    fault. *)

val k_error : int
(** [11] — [Bgr_error] escalation: [a] exit code. *)

val k_dump : int
(** [12] — a dump was requested: [a] 1 = signal, 2 = wire opcode,
    3 = supervisor, 4 = error exit. *)

val k_worker_spawn : int
(** [13] — worker subprocess spawned: [c] pid. *)

val k_worker_kill : int
(** [14] — worker killed: [a] reason (1 hang, 2 hard-deadline,
    3 canceled, 4 signaled, 5 oom), [b] signal number when signaled,
    [c] pid. *)

val kind_name : int -> string

val phase_code : string -> int
val phase_name : int -> string
(** The router's fixed phase numbering (0..5, 255 unknown), shared by
    the flight recorder and the deletion journal's phase byte. *)

val criterion_code : string -> int
val criterion_name : int -> string
(** The router's fixed winning-criterion vocabulary (Sec. 3.4 chains);
    0 is unknown. *)

val margin_encode : float -> int
val margin_decode : int -> float
(** Worst-margin picoseconds packed as an int (milli-ps, saturating);
    [nan] survives the round trip as [nan]. *)

(** {1 Recording} *)

val enabled : unit -> bool
(** True unless {!set_enabled}[ false] — the recorder is on by
    default, before and independent of [Obs.enable]. *)

val set_enabled : bool -> unit
(** The off switch exists for the overhead benchmark and for tests;
    production paths never turn the recorder off. *)

val record : int -> a:int -> b:int -> c:int -> d:int -> unit
(** Record one event into the calling domain's ring.  Never raises,
    never locks, never allocates; a handful of nanoseconds when
    enabled, one load when disabled. *)

val recorded : unit -> int
(** Events ever recorded by the calling domain (diagnostic). *)

val reset_for_tests : unit -> unit
(** Forget every ring and restart the epoch (orchestrator-only test
    hook; concurrent recorders in flight would re-register). *)

val set_clock_for_tests : (unit -> float) option -> unit
(** Replace the event clock (seconds; the epoch becomes 0) with a
    deterministic one; [None] restores the real clock. *)

(** {1 Dumping} *)

val dump_string : reason:string -> string
(** The complete [BGRF1] image of every ring: magic, a header frame
    (pid, epoch, [reason]), then one frame per domain ring, all
    CRC-framed.  Rings of other domains are read without
    synchronization — a torn slot from a mid-write race is acceptable
    in a crash report and detectable by its timestamp. *)

val dump_file : ?trigger:int -> reason:string -> string -> bool
(** Write {!dump_string} to a path (temp + fsync + rename when
    possible, direct write as fallback).  Records a {!k_dump} event
    first, with [a] = [trigger] (the {!k_dump} vocabulary; default 4,
    error exit).  Never raises; false when the file could not be
    written. *)

val install_sigquit_dump : path:(unit -> string) -> ?after:(string -> unit) -> unit -> unit
(** Install a SIGQUIT handler that dumps to [path ()] and continues
    running — the on-demand flight-record snapshot, and the hook the
    worker supervisor uses to request a dump before SIGKILL.  [after]
    runs post-dump with the path (the worker sends its BGRW1 [dump]
    frame there).  The handler is minimal: it calls only {!dump_file}
    and [after], catches everything, and never exits. *)

(** {1 Reading (postmortem side)} *)

type event = {
  e_kind : int;
  e_a : int;
  e_b : int;
  e_c : int;
  e_d : int;
  e_t_us : int;  (** microseconds since the recorder epoch *)
}

type ring = {
  rg_domain : int;  (** recording domain ordinal *)
  rg_total : int;  (** events ever recorded (dropped = total - retained) *)
  rg_events : event list;  (** retained events, oldest first *)
}

type dump = {
  f_pid : int;
  f_reason : string;
  f_epoch_s : float;  (** absolute wall-clock seconds of the recorder epoch *)
  f_rings : ring list;
  f_torn : bool;
  f_warnings : string list;
}

val read_string : ?file:string -> string -> (dump, Bgr_error.t) result
val read : path:string -> (dump, Bgr_error.t) result
