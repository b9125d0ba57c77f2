(** The CRC frame shared by every binary format of the router: the
    deletion journal ([BGRJ1]), the quality log ([BGRQ1]), the flight
    record ([BGRF1]), the daemon socket ([BGRS1]) and the worker pipe
    ([BGRW1]).  Each is a 6-byte magic followed by frames

    {v [u32 length | payload | u32 CRC-32(payload)] v}

    with every integer big-endian.  A format is reduced to its
    {!format} descriptor plus a payload codec; this module is the only
    code that knows the frame layout and the salvage rules (see the
    "CRC frame" section of docs/FORMATS.md). *)

type format = {
  magic : string;  (** the 6-byte header, e.g. ["BGRJ1\n"] *)
  noun : string;  (** names the format in errors and warnings *)
  phase : string;  (** the [Bgr_error] phase of every error *)
  max_len : int;  (** largest accepted payload length *)
}

(** {1 Primitives} *)

exception Short
(** A read ran past the end of its bytes. *)

exception Malformed of string
(** A payload codec rejected a frame whose CRC was intact. *)

val add_u32 : Buffer.t -> int -> unit
(** The low 32 bits, big-endian. *)

val get_u32 : string -> int -> int
(** Unsigned big-endian u32 at an offset; raises {!Short} past the end. *)

val add_lpstr : Buffer.t -> string -> unit
(** [u32 length | bytes]. *)

val get_lpstr : string -> int -> string * int
(** The string at an offset and the offset just past it; raises
    {!Short} when the declared length runs past the end. *)

(** {1 Encoding} *)

val add : Buffer.t -> string -> unit
(** Append the frame of a payload. *)

val encode : string -> string
(** The frame of a payload. *)

(** {1 Streams (socket and pipe)} *)

type extract =
  | Need of int  (** at least this many more bytes required *)
  | Frame of string * int  (** payload, total frame bytes consumed *)
  | Bad of Bgr_error.t  (** length above [max_len] or CRC mismatch *)

val extract : format -> string -> pos:int -> extract
(** Examine the bytes from [pos] for one complete frame.  A length
    above [max_len] is [Bad] before any payload byte is awaited; a
    zero-length payload is a valid frame. *)

(** {1 Files (journal, quality log, flight record)} *)

type 'a salvage = {
  records : ('a * int) list;
      (** decoded records in file order, each with the offset just past
          its frame *)
  valid_bytes : int;  (** offset past the last intact frame *)
  torn : bool;  (** a damaged final frame was truncated away *)
  warnings : string list;  (** one note per truncation *)
}

val read_string :
  format -> ?file:string -> (string -> int -> int -> 'a) -> string -> ('a salvage, Bgr_error.t) result
(** Check the magic, then frame by frame call [decode s pos len] on
    each payload ([pos] its offset, [len] its length).  A length of 0
    or above [max_len], a CRC mismatch before the final frame, or a
    [decode] raising {!Malformed} or {!Short} is a [Parse] error; a
    damaged or incomplete {e final} frame is a torn tail, dropped with
    a warning.  [file] labels errors. *)

val read :
  format -> path:string -> (string -> int -> int -> 'a) -> ('a salvage, Bgr_error.t) result
(** {!read_string} on a whole file; an unreadable file is [Io_error]. *)
