(** Detailed channel routing — the measurement substrate for Table 2.

    The paper obtains final critical-path delays "from routing lengths
    after channel routing in the same delay model" and chip area from
    the resulting channel heights.  This module implements the classic
    constrained left-edge algorithm: horizontal net segments are packed
    onto tracks top-down subject to the vertical constraint graph (a
    net with a pin from the top row and a net with a pin from the
    bottom row at the same column must stack in that order); cyclic or
    blocking constraints are broken by dogleg splits.  Multi-pitch nets
    occupy [pitch] adjacent tracks (Sec. 4.2).

    Track 0 is the topmost track of the channel. *)

type pin = { pin_x : int; pin_from_top : bool }

type seg = {
  seg_net : int;  (** caller's net id (opaque here) *)
  seg_lo : int;  (** leftmost column, closed *)
  seg_hi : int;  (** rightmost column, closed *)
  seg_pins : pin list;
  seg_width : int;  (** tracks occupied (pitch) *)
}

type piece = {
  pc_net : int;
  pc_lo : int;
  pc_hi : int;
  pc_track : int;  (** top track of the piece *)
  pc_width : int;
}

type result = {
  tracks : int;  (** channel height in tracks *)
  pieces : piece list;
  doglegs : int;  (** splits introduced *)
  violations : int;
      (** vertical constraints force-broken: always 0 from {!route},
          which splits every cycle; {!Greedy_router} can report some *)
  net_vertical_tracks : (int * float) list;
      (** per net: vertical wiring inside the channel, in track units —
          each pin descends from its channel edge to its piece's track
          and each dogleg jogs between its two pieces' tracks *)
}

val route : ?pin_bias:bool -> seg list -> result
(** Route one channel.  Pin-free degenerate segments (single points)
    are still given a track so their vertical connection exists.

    With [pin_bias] (default false), candidates for early (upper)
    tracks are ordered so nets pinned mostly from the top row fill the
    top of the channel and bottom-heavy nets sink — shortening the
    vertical pin jogs at identical track counts (an extension beyond
    the paper; ablation A8 quantifies it). *)

val vertical_um : track_um:float -> result -> float
(** Total vertical wiring inside the channel, micrometres. *)

val net_vertical_um : track_um:float -> result -> (int * float) list
(** [vertical_um] broken down per net id. *)

val check : seg list -> result -> (string list, string list) Stdlib.result
(** Structural audit: every segment covered by its pieces, no two
    pieces overlap on a track, all pins inside their net's pieces.
    [Ok warnings] or [Error problems]. *)
