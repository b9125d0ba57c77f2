(** The solution-quality event log ([.bgrq]): an append-only, CRC-framed
    binary stream of {!Router.quality_sample} records stamped with the
    run-relative wall-clock time of emission.

    The file is a 6-byte magic header followed by one {!Frame} per
    record, floats as IEEE-754 bit patterns.  The payload is
    self-describing — length-prefixed phase and criterion strings,
    counted density/margin arrays (a u16 count: at most 65,535
    channels and margins are written) — so the format needs no side
    table.

    Recovery on read is {!Frame.read_string}'s: a damaged or
    incomplete {e final} frame is a torn tail (the recording process
    died mid-append), truncated away with a warning; damage anywhere
    earlier is a structured [Parse] error. *)

type record = {
  q_t_s : float;  (** seconds since the writer was opened *)
  q_sample : Router.quality_sample;
}

val magic : string
(** ["BGRQ1\n"] — file magic and format version. *)

val default_filename : string
(** ["quality.bgrq"] — the conventional name inside a run directory,
    next to the journal and snapshot. *)

(** {1 Writing} *)

type writer

val create : path:string -> writer
(** Create (truncate) the log and write the magic header.  Raises a
    structured [Io_error] when the file cannot be opened. *)

val append : writer -> Router.quality_sample -> record
(** Frame and append one sample, stamped with the time since
    {!create}, and flush it to the OS.  Subject to fault injection at
    site ["analyze.qlog"].  Returns the stamped record. *)

val appended : writer -> int
(** Samples appended so far. *)

val path : writer -> string

val close : writer -> unit
(** Flush and close; idempotent. *)

(** {1 Reading} *)

type read_result = {
  records : record list;  (** intact records, in emission order *)
  torn : bool;  (** a damaged final frame was truncated away *)
  warnings : string list;  (** human-readable salvage notes *)
}

val read_string : ?file:string -> string -> (read_result, Bgr_error.t) result
(** Decode a whole log image.  [file] labels errors. *)

val read : path:string -> (read_result, Bgr_error.t) result

(**/**)

val encode_frame : record -> string
(** Exposed for tests (corruption injection). *)
