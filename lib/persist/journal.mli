(** The write-ahead deletion journal.

    A journal file is the magic header ["BGRJ1\n"] followed by one
    {!Frame} per record.  The payload is a fixed 26-byte encoding
    of one {e committed primary deletion}: phase code (u8), area-mode
    flag (u8), net id (u32), edge id (u32), deletions-before (u64) and
    deletion-hash-before (u64).  Cascaded prunes and the mirrored
    deletion of a differential-pair partner are deterministic
    consequences of the primary deletion, so a mirrored pair costs one
    record, not two, and replay regenerates the rest.

    The record is appended and flushed {e before} the deletion is
    applied (write-ahead); [fsync] happens at phase boundaries via
    {!sync}.  A process killed mid-append can leave a torn final
    record; {!read} truncates it with a recorded warning.  Corruption
    {e before} the final record is a structured error (the salvage
    rule of {!Frame.read_string}).

    Fault-injection sites: [persist.append] (head of {!append}, before
    any byte is written) and [persist.fsync] (head of {!sync}). *)

type record = {
  r_phase : string;
  r_area_mode : bool;
  r_net : int;
  r_edge : int;
  r_deletions_before : int;
  r_hash_before : int;
}

val magic : string
val header_bytes : int

val payload_len : int
(** Fixed payload size (26 bytes). *)

val encode_frame : record -> string
(** One framed record: length prefix, payload, CRC. *)

(** {1 Writing} *)

type writer

val create : path:string -> writer
(** Truncate/create the file and write the header. *)

val reopen : path:string -> keep_bytes:int -> writer
(** Truncate the file to [keep_bytes] (discarding a torn tail and any
    records superseded by a snapshot) and position for appending — the
    resume path. *)

val append : writer -> record -> unit
(** Frame, write and flush one record.  Must be called from the
    orchestrating domain (the router's sequential apply step). *)

val sync : writer -> unit
(** Flush and [fsync] — called at phase boundaries, before the
    snapshot is written. *)

val close : writer -> unit
(** Flush and close (idempotent). *)

(** {1 Reading} *)

type read_result = {
  records : (record * int) list;
      (** intact records in file order, each with the byte offset just
          past its frame *)
  valid_bytes : int;  (** offset past the last intact record *)
  torn : bool;  (** the file ended inside a record *)
  warnings : string list;  (** human-readable note per anomaly *)
}

val read_string : ?file:string -> string -> (read_result, Bgr_error.t) result
(** Parse journal bytes.  A bad header or mid-file corruption is
    [Error _] (code [Parse]); a torn {e final} record sets [torn] and a
    warning, with [valid_bytes] marking the truncation point. *)

val read : path:string -> (read_result, Bgr_error.t) result
