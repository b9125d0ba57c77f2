(** A minimal JSON value type with a renderer and a strict
    recursive-descent parser, with no external dependency.  It is the
    one JSON codec of the code base: trace events and the metrics
    registry ([Obs]), serve replies and artifacts, [quality.json] and
    [postmortem.json] are all rendered and read here.

    Numbers have one spelling: an integer below 1e15 in magnitude as
    [%.0f]; any other finite value as [%.12g] when that reads back to
    the same float, else [%.17g] — so every finite float survives
    render → parse bit for bit.  The parser takes RFC 8259's number
    grammar and no raw control characters inside strings; a [\u]
    escape is exactly four hex digits, decoded to UTF-8 (surrogate
    pairs included; an unpaired surrogate is an error).

    Non-finite floats have no JSON encoding: {!num} (and the renderer)
    map them to [null], and {!to_float} maps [null] back to [nan], so
    summaries of constraint-free runs (worst margin = infinity) survive
    a round trip as "not a number" rather than a parse error. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val num : float -> t
(** [Num v], or [Null] when [v] is not finite. *)

val int : int -> t

val to_string : t -> string
(** Compact (single-line) rendering with full escaping. *)

val parse : string -> (t, string) result
(** Strict parse of a complete JSON document; the error carries the
    byte offset. *)

val member : string -> t -> t option

val to_float : t -> float option
(** [Null] reads as [nan]. *)

val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option
val to_obj : t -> (string * t) list option
