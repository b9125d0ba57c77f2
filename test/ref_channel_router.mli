(** Slow reference for [Channel_router]: the constrained left-edge
    router that rebuilds its vertical-constraint graph on every track. *)

type pin = Channel_router.pin = { pin_x : int; pin_from_top : bool }

type seg = Channel_router.seg = {
  seg_net : int;
  seg_lo : int;
  seg_hi : int;
  seg_pins : pin list;
  seg_width : int;
}

type piece = Channel_router.piece = {
  pc_net : int;
  pc_lo : int;
  pc_hi : int;
  pc_track : int;
  pc_width : int;
}

type result = Channel_router.result = {
  tracks : int;
  pieces : piece list;
  doglegs : int;
  violations : int;
  net_vertical_tracks : (int * float) list;
}

val route : ?pin_bias:bool -> seg list -> result
(** Same contract as [Channel_router.route]. *)
