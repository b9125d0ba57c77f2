(** The `bgr_serve` wire protocol: request and reply messages over a
    Unix domain socket.

    A connection opens with both sides sending the 6-byte magic
    ["BGRS1\n"]; every message after that is one {!Frame}.  The
    payload's first byte is the opcode; strings inside bodies are
    [u32 length | bytes].  The message catalogue is documented in
    docs/serving.md.

    Decoding is defensive: a declared length beyond {!max_payload}, a
    CRC mismatch, a truncated body, an unknown opcode or trailing
    bytes after a well-formed body all yield a structured [Parse]
    error — the daemon replies with a protocol error and closes the
    connection instead of crashing. *)

val magic : string
(** ["BGRS1\n"]. *)

val max_payload : int
(** Largest accepted payload (16 MiB) — a declared frame length above
    this is rejected before any body byte is read, so a hostile or
    corrupt length prefix cannot make the daemon buffer unbounded
    data. *)

type request =
  | Route of {
      wait : bool;  (** hold the connection and stream the result *)
      progress : bool;  (** with [wait]: also stream progress frames *)
      timing_driven : bool;
      deadline_ms : int option;  (** per-job wall-clock budget *)
      name : string option;  (** client-chosen job id *)
      design : string;  (** design-bundle text *)
    }
  | Resume of { wait : bool; progress : bool; job : string }
  | Analyze of { job : string }
  | Status of { job : string option }  (** [None] = daemon status *)
  | Shutdown
  | Cancel of { job : string }
      (** Kill the job's running worker (or drop it from the queue) and
          answer its waiters with a structured [canceled] error. *)
  | Revive of { wait : bool; force : bool; job : string }
      (** Re-queue a dead-lettered job.  A {e quarantined} job (one
          that repeatedly killed its worker) is refused unless [force]
          is set. *)
  | Watch of { job : string }
      (** Subscribe to a pending job's progress stream: an [Info] ack,
          then [Progress] frames as the job advances, then its final
          [Result].  A finished job answers with its stored result
          immediately. *)
  | Stats of { prom : bool }
      (** Snapshot the live metrics registry: Prometheus text when
          [prom], the registry JSON otherwise.  Served by the event
          loop without draining the daemon. *)
  | Dump
      (** Dump the daemon's flight recorder to a [BGRF1] file in the
          spool root (and SIGQUIT the running worker, if any, so it
          dumps too); answered with an [Info] frame naming the file.
          The on-demand forensic snapshot — see docs/observability.md. *)

type reply =
  | Accepted of { job : string }
  | Result of { job : string; ok : bool; json : string }
  | Rerror of { code : string; message : string }
  | Overloaded of { reason : string; depth : int; cap : int }
  | Info of { json : string }
  | Progress of { job : string; seq : int; json : string }
      (** One progress event.  [seq] is per-job, starts at 1 and is
          strictly increasing on a connection; frames may be dropped
          (never reordered) when a subscriber reads too slowly. *)
  | Rstats of { prom : bool; body : string }

val encode_request : request -> string
(** The complete frame (length, payload, CRC) — not the payload alone. *)

val encode_reply : reply -> string

val decode_request : ?file:string -> string -> (request, Bgr_error.t) result
(** Decode a frame {e payload} (opcode byte onward). *)

val decode_reply : ?file:string -> string -> (reply, Bgr_error.t) result

(** {1 Incremental frame extraction}

    The daemon's event loop accumulates connection bytes in a buffer
    and repeatedly asks for the next complete frame. *)

type extract = Frame.extract =
  | Need of int  (** at least this many more bytes required *)
  | Frame of string * int  (** payload, total frame bytes consumed *)
  | Bad of Bgr_error.t  (** oversized length or CRC mismatch *)

val extract_frame : string -> pos:int -> extract
(** Examine [s] from [pos] for one complete frame of at most
    {!max_payload} bytes (the worker pipe shares this cap). *)

val valid_job_id : string -> bool
(** Job ids are 1..64 chars of [A-Za-z0-9._-] not starting with a dot
    or dash — safe as directory names in the spool. *)
