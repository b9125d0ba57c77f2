type channel_state = {
  d_max : int array;  (* d_M chart *)
  d_min : int array;  (* d_m chart *)
  mutable rev : int;
  mutable cache : (int * int * int * int) option;  (* C_M, NC_M, C_m, NC_m *)
  mutable touched : Interval.t list;  (* spans mutated since the last take_touched *)
  mutable n_touched : int;
}

type t = {
  channels : channel_state array;
  width : int;
  mutable touched_channels : int list;  (* channels with a non-empty [touched] *)
}

(* Past this many recorded spans a channel's record collapses into
   their hull: coarser, still covering, and bounded in size. *)
let max_touched = 16

let create ~n_channels ~width =
  if n_channels <= 0 || width <= 0 then
    Bgr_error.raise_error Bgr_error.Internal
      "Density.create: needs positive dimensions, got %d channels x width %d" n_channels width;
  let mk _ =
    { d_max = Array.make width 0;
      d_min = Array.make width 0;
      rev = 0;
      cache = None;
      touched = [];
      n_touched = 0 }
  in
  { channels = Array.init n_channels mk; width; touched_channels = [] }

let width t = t.width
let n_channels t = Array.length t.channels

let channel t c =
  if c < 0 || c >= Array.length t.channels then
    Bgr_error.raise_error Bgr_error.Internal "Density: unknown channel %d (have %d)" c
      (Array.length t.channels);
  t.channels.(c)

let touch t c ch span =
  ch.rev <- ch.rev + 1;
  ch.cache <- None;
  if ch.n_touched = 0 then t.touched_channels <- c :: t.touched_channels;
  if ch.n_touched < max_touched then ch.touched <- span :: ch.touched
  else ch.touched <- [ List.fold_left Interval.hull span ch.touched ];
  ch.n_touched <- ch.n_touched + 1

let bump arr span delta =
  Interval.iter
    (fun x ->
      arr.(x) <- arr.(x) + delta;
      assert (arr.(x) >= 0))
    span

let add_trunk t ~channel:c ~span ~w ~bridge =
  if not (Interval.is_empty span) then begin
    let ch = channel t c in
    bump ch.d_max span w;
    if bridge then bump ch.d_min span w;
    touch t c ch span
  end

let remove_trunk t ~channel:c ~span ~w ~bridge =
  if not (Interval.is_empty span) then begin
    let ch = channel t c in
    bump ch.d_max span (-w);
    if bridge then bump ch.d_min span (-w);
    touch t c ch span
  end

let set_bridge t ~channel:c ~span ~w bridge =
  if not (Interval.is_empty span) then begin
    let ch = channel t c in
    bump ch.d_min span (if bridge then w else -w);
    touch t c ch span
  end

let clear t =
  Array.iteri
    (fun c ch ->
      Array.fill ch.d_max 0 (Array.length ch.d_max) 0;
      Array.fill ch.d_min 0 (Array.length ch.d_min) 0;
      touch t c ch (Interval.span 0 t.width))
    t.channels

let take_touched t =
  let out =
    List.rev_map
      (fun c ->
        let ch = t.channels.(c) in
        let spans = ch.touched in
        ch.touched <- [];
        ch.n_touched <- 0;
        (c, spans))
      t.touched_channels
  in
  t.touched_channels <- [];
  out

let max_and_count arr lo hi =
  (* Maximum over columns [lo, hi) and how many columns attain it. *)
  let best = ref 0 and count = ref 0 in
  for x = lo to hi - 1 do
    if arr.(x) > !best then begin
      best := arr.(x);
      count := 1
    end
    else if arr.(x) = !best then incr count
  done;
  (!best, !count)

let aggregates t c =
  let ch = channel t c in
  match ch.cache with
  | Some a -> a
  | None ->
    let c_max, nc_max = max_and_count ch.d_max 0 t.width in
    let c_min, nc_min = max_and_count ch.d_min 0 t.width in
    let a = (c_max, nc_max, c_min, nc_min) in
    ch.cache <- Some a;
    a

let cM t ~channel:c =
  let v, _, _, _ = aggregates t c in
  v

let ncM t ~channel:c =
  let _, v, _, _ = aggregates t c in
  v

let cm t ~channel:c =
  let _, _, v, _ = aggregates t c in
  v

let ncm t ~channel:c =
  let _, _, _, v = aggregates t c in
  v

let revision t ~channel:c = (channel t c).rev

let edge_params t ~channel:c ~span =
  if Interval.is_empty span then (0, 0, 0, 0)
  else begin
    let ch = channel t c in
    let lo = max 0 (Interval.lo span) and hi = min t.width (Interval.hi span) in
    let d_max, nd_max = max_and_count ch.d_max lo hi in
    let d_min, nd_min = max_and_count ch.d_min lo hi in
    (d_max, nd_max, d_min, nd_min)
  end

let dM_at t ~channel:c ~x = (channel t c).d_max.(x)
let dm_at t ~channel:c ~x = (channel t c).d_min.(x)
let tracks_estimate t = Array.init (n_channels t) (fun c -> cM t ~channel:c)

let chart t ~channel:c =
  let ch = channel t c in
  Array.init t.width (fun x -> (ch.d_max.(x), ch.d_min.(x)))
