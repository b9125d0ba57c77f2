(** Line/token plumbing shared by the design-file readers.

    The bgr text formats are line oriented: `#` starts a comment, blank
    lines are skipped, fields are whitespace separated.  Errors carry
    the 1-based line number.

    {!protect} is the single boundary between the exception-raising
    parser internals and the [result]-returning public API: it maps the
    whole parser/validator exception zoo onto {!Bgr_error.t}.  Errors
    that concern the file as a whole (semantic checks that have no
    single offending line) are reported with line 0. *)

exception Parse_error of { line : int; message : string }

val fail : line:int -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** @raise Parse_error *)

val tokenize : string -> (int * string list) list
(** Split text into (line number, tokens) for every non-empty,
    non-comment line.  Fault-injection site ["io.parse"]. *)

val int_field : line:int -> what:string -> string -> int

val float_field : line:int -> what:string -> string -> float
(** Rejects NaN and infinities: every number in a design file must be
    finite. *)

val float_repr : float -> string
(** The shortest of [%.12g] ... [%.17g] that parses back to exactly [v]
    (for a finite [v]): values that [%.12g] already carries keep those
    bytes, and no value loses low bits in a write/parse round trip. *)

val read_all : string -> string
(** Whole file as a string.  @raise Sys_error *)

val protect : ?file:string -> (unit -> 'a) -> ('a, Bgr_error.t) result
(** [protect ?file f] runs [f] and converts any raised parse or
    validation exception into [Error e], stamping [file] on the error
    when given.  [Parse_error] becomes code [Parse] with its line;
    [Netlist.Invalid], [Cell.Malformed] and
    [Path_constraint.Bad_constraint] become [Validate] at line 0;
    [Floorplan.Overlap] keeps its [Geometry] payload;
    [Routing_graph.Unroutable] becomes [Unroutable]; [Sys_error]
    becomes [Io_error]; an already-structured [Bgr_error.Error] passes
    through; anything else (except [Out_of_memory] and
    [Stack_overflow]) is wrapped as [Internal] so that readers never
    leak an exception. *)
