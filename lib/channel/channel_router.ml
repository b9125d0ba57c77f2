type pin = { pin_x : int; pin_from_top : bool }

type seg = {
  seg_net : int;
  seg_lo : int;
  seg_hi : int;
  seg_pins : pin list;
  seg_width : int;
}

type piece = {
  pc_net : int;
  pc_lo : int;
  pc_hi : int;
  pc_track : int;
  pc_width : int;
}

type result = {
  tracks : int;
  pieces : piece list;
  doglegs : int;
  violations : int;
  net_vertical_tracks : (int * float) list;
}

(* Working piece: a (possibly dogleg-split) horizontal fragment. *)
type work = {
  w_id : int;
  w_net : int;
  w_lo : int;
  w_hi : int;
  w_pins : pin list;
  w_width : int;
  mutable w_track : int;  (* -1 while unplaced *)
}

type junction = { j_left : int; j_right : int }  (* work ids of a dogleg pair *)

type state = {
  mutable works : work list;  (* all pieces, placed or not *)
  mutable next_id : int;
  mutable junctions : junction list;
  occupancy : (int, (int * int) list) Hashtbl.t;  (* track -> closed intervals *)
  (* The VCG, cached.  [vcg_edges] reads only the order, ids, nets and
     pins of [works], never a track, so the cache is rebuilt
     ([refresh_vcg]) exactly where those change: a dogleg split. *)
  mutable edges : (work * work) list;  (* (above, below), in [vcg_edges] order *)
  mutable preds : work list array;  (* by w_id: the [above] of each edge into it, in edge order *)
  mutable succs : work list array;  (* by w_id: the [below] of each edge out of it, in edge order *)
  mutable pending : work list;  (* unplaced pieces, sorted by (w_lo, w_id) *)
}

let overlap (a_lo, a_hi) (b_lo, b_hi) = a_lo <= b_hi && b_lo <= a_hi

let track_free st ~track ~lo ~hi =
  let taken = Option.value (Hashtbl.find_opt st.occupancy track) ~default:[] in
  not (List.exists (overlap (lo, hi)) taken)

let reserve st ~track ~lo ~hi =
  let taken = Option.value (Hashtbl.find_opt st.occupancy track) ~default:[] in
  Hashtbl.replace st.occupancy track ((lo, hi) :: taken)

(* Vertical constraint edges among all pieces: at each column, the
   first piece (in [works] order) pinned from the top must lie above the
   first piece pinned from the bottom.  The [Hashtbl] iteration order
   fixes the edge order, which decides the cycle [find_cycle] finds and
   so which piece gets split.  Conflicting same-side claims at one
   column are counted as violations once, at routing end via [check]. *)
let vcg_edges st =
  let tops = Hashtbl.create 64 and bottoms = Hashtbl.create 64 in
  let note w =
    let on_pin p =
      let table = if p.pin_from_top then tops else bottoms in
      if not (Hashtbl.mem table p.pin_x) then Hashtbl.add table p.pin_x w
    in
    List.iter on_pin w.w_pins
  in
  List.iter note st.works;
  let edges = ref [] in
  Hashtbl.iter
    (fun x (above : work) ->
      match Hashtbl.find_opt bottoms x with
      | Some below when below.w_net <> above.w_net -> edges := (above, below) :: !edges
      | Some _ | None -> ())
    tops;
  !edges

let refresh_vcg st =
  let edges = vcg_edges st in
  let preds = Array.make st.next_id [] and succs = Array.make st.next_id [] in
  List.iter
    (fun (above, below) ->
      preds.(below.w_id) <- above :: preds.(below.w_id);
      succs.(above.w_id) <- below :: succs.(above.w_id))
    (List.rev edges);
  st.edges <- edges;
  st.preds <- preds;
  st.succs <- succs

let by_lo_id a b =
  let c = Int.compare a.w_lo b.w_lo in
  if c <> 0 then c else Int.compare a.w_id b.w_id

(* Pieces whose every VCG predecessor is already placed wholly above
   the given track, in (w_lo, w_id) order. *)
let eligible st ~track =
  let blocked w =
    List.exists
      (fun above -> above.w_track < 0 || above.w_track + above.w_width > track)
      st.preds.(w.w_id)
  in
  List.filter (fun w -> not (blocked w)) st.pending

let place_on_track st ~track =
  let placed_any = ref false in
  let try_place w =
    let free = ref true in
    for k = 0 to w.w_width - 1 do
      if not (track_free st ~track:(track + k) ~lo:w.w_lo ~hi:w.w_hi) then free := false
    done;
    if !free then begin
      for k = 0 to w.w_width - 1 do
        reserve st ~track:(track + k) ~lo:w.w_lo ~hi:w.w_hi
      done;
      w.w_track <- track;
      placed_any := true
    end
  in
  List.iter try_place (eligible st ~track);
  if !placed_any then st.pending <- List.filter (fun w -> w.w_track < 0) st.pending;
  !placed_any

(* Find one VCG cycle among unplaced pieces (DFS from each unplaced
   piece in [works] order); [] when acyclic. *)
let find_cycle st =
  let state = Hashtbl.create 16 in
  (* 0 = visiting, 1 = done *)
  let exception Found of work list in
  let rec dfs path w =
    match Hashtbl.find_opt state w.w_id with
    | Some 1 -> ()
    | Some _ ->
      (* back edge: extract the cycle from the path *)
      let rec cut acc = function
        | [] -> acc
        | x :: rest -> if x.w_id = w.w_id then x :: acc else cut (x :: acc) rest
      in
      raise (Found (cut [] path))
    | None ->
      Hashtbl.add state w.w_id 0;
      List.iter (fun b -> if b.w_track < 0 then dfs (w :: path) b) st.succs.(w.w_id);
      Hashtbl.replace state w.w_id 1
  in
  let root w = if w.w_track < 0 && not (Hashtbl.mem state w.w_id) then dfs [] w in
  match List.iter root st.works with
  | () -> []
  | exception Found cycle -> cycle

(* Pin columns of a piece that has any VCG edge, in increasing order;
   [] for an unconstrained piece. *)
let constraint_columns st w =
  if st.preds.(w.w_id) = [] && st.succs.(w.w_id) = [] then []
  else List.sort_uniq Int.compare (List.map (fun p -> p.pin_x) w.w_pins)

let split_piece st w ~at =
  st.works <- List.filter (fun x -> x.w_id <> w.w_id) st.works;
  let left_pins = List.filter (fun p -> p.pin_x <= at) w.w_pins in
  let right_pins = List.filter (fun p -> p.pin_x > at) w.w_pins in
  let left =
    { w_id = st.next_id; w_net = w.w_net; w_lo = w.w_lo; w_hi = at; w_pins = left_pins;
      w_width = w.w_width; w_track = -1 }
  in
  let right =
    { w_id = st.next_id + 1; w_net = w.w_net; w_lo = at; w_hi = w.w_hi; w_pins = right_pins;
      w_width = w.w_width; w_track = -1 }
  in
  st.next_id <- st.next_id + 2;
  st.works <- left :: right :: st.works;
  st.junctions <- { j_left = left.w_id; j_right = right.w_id } :: st.junctions;
  st.pending <-
    List.merge by_lo_id
      (List.filter (fun x -> x.w_id <> w.w_id) st.pending)
      (List.sort by_lo_id [ left; right ]);
  refresh_vcg st

(* Break a VCG cycle: dogleg-split the widest splittable piece in the
   cycle between two of its constraint columns.  A cycle member's
   in-edge and out-edge sit at two different columns (one column yields
   at most one edge), so some piece is always splittable. *)
let break_cycle st cycle =
  let splittable =
    List.filter_map
      (fun w ->
        match constraint_columns st w with
        | c1 :: (_ :: _ as rest) ->
          let c2 = List.nth rest (List.length rest - 1) in
          if c2 > c1 then Some (w, c1) else None
        | [] | [ _ ] -> None)
      cycle
  in
  match List.sort (fun (a, _) (b, _) -> compare (b.w_hi - b.w_lo) (a.w_hi - a.w_lo)) splittable with
  | (w, c1) :: _ -> split_piece st w ~at:c1
  | [] ->
    Bgr_error.raise_error Bgr_error.Internal
      "Channel_router.route: no splittable piece on a %d-piece VCG cycle"
      (List.length cycle)

(* Fraction of a segment's pins entering from the top, in [-1, 1]:
   +1 all-top, -1 all-bottom, 0 balanced or pin-free. *)
let top_bias s =
  let top = List.length (List.filter (fun p -> p.pin_from_top) s.seg_pins) in
  let bottom = List.length s.seg_pins - top in
  if top + bottom = 0 then 0.0
  else float_of_int (top - bottom) /. float_of_int (top + bottom)

(* Post-pass for ~pin_bias: permute whole tracks (which preserves
   non-overlap by construction and the track count trivially) into a
   VCG-respecting order that floats top-heavy nets up and sinks
   bottom-heavy ones, shortening the pin jogs.  Skipped when any piece
   is wider than one track (groups would need to stay contiguous). *)
let permute_tracks st ~bias_of =
  let works = st.works in
  if List.exists (fun w -> w.w_width > 1) works then ()
  else begin
    let n_tracks = List.fold_left (fun acc w -> max acc (w.w_track + 1)) 0 works in
    if n_tracks > 1 then begin
      (* Track-level precedence from the placed pieces' VCG edges. *)
      let succs = Array.make n_tracks [] in
      let indeg = Array.make n_tracks 0 in
      List.iter
        (fun (above, below) ->
          if above.w_track >= 0 && below.w_track >= 0 && above.w_track <> below.w_track then begin
            succs.(above.w_track) <- below.w_track :: succs.(above.w_track);
            indeg.(below.w_track) <- indeg.(below.w_track) + 1
          end)
        st.edges;
      (* Average pin bias per track (+1 = wants the top). *)
      let score = Array.make n_tracks 0.0 and members = Array.make n_tracks 0 in
      List.iter
        (fun w ->
          if w.w_track >= 0 then begin
            score.(w.w_track) <-
              score.(w.w_track) +. Option.value (Hashtbl.find_opt bias_of w.w_net) ~default:0.0;
            members.(w.w_track) <- members.(w.w_track) + 1
          end)
        works;
      for i = 0 to n_tracks - 1 do
        if members.(i) > 0 then score.(i) <- score.(i) /. float_of_int members.(i)
      done;
      (* Kahn order, always taking the most top-hungry available track.
         The order can fail to exist: a dogleg split puts its pieces
         first in [works], so where two nets claim one column from the
         same side, that column's edge can move onto a piece placed
         below its partner.  The tracks then keep their order. *)
      let remaining = Array.copy indeg in
      let placed = Array.make n_tracks (-1) in
      let emitted = ref 0 in
      (try
         while !emitted < n_tracks do
           let best = ref (-1) in
           for i = 0 to n_tracks - 1 do
             if remaining.(i) = 0 && placed.(i) = -1 then
               if !best = -1 || score.(i) > score.(!best) then best := i
           done;
           if !best = -1 then raise Exit;
           placed.(!best) <- !emitted;
           incr emitted;
           List.iter (fun j -> remaining.(j) <- remaining.(j) - 1) succs.(!best)
         done;
         List.iter (fun w -> if w.w_track >= 0 then w.w_track <- placed.(w.w_track)) works
       with Exit -> ())
    end
  end

let route ?(pin_bias = false) segs =
  let st =
    { works = [];
      next_id = 0;
      junctions = [];
      occupancy = Hashtbl.create 32;
      edges = [];
      preds = [||];
      succs = [||];
      pending = [] }
  in
  List.iter
    (fun s ->
      if s.seg_width < 1 || s.seg_hi < s.seg_lo then invalid_arg "Channel_router.route: bad segment";
      st.works <-
        { w_id = st.next_id; w_net = s.seg_net; w_lo = s.seg_lo; w_hi = s.seg_hi;
          w_pins = s.seg_pins; w_width = s.seg_width; w_track = -1 }
        :: st.works;
      st.next_id <- st.next_id + 1)
    segs;
  st.pending <- List.sort by_lo_id st.works;
  refresh_vcg st;
  let budget = ref ((3 * List.length segs * 4) + 64) in
  let track = ref 0 in
  while st.pending <> [] && !budget > 0 do
    decr budget;
    let placed = place_on_track st ~track:!track in
    if placed then incr track
    else begin
      match find_cycle st with
      | [] ->
        (* Progress is possible on a later track (predecessors placed at
           or below the current one). *)
        incr track
      | cycle -> break_cycle st cycle
    end
  done;
  if st.pending <> [] then
    Bgr_error.raise_error Bgr_error.Internal
      "Channel_router.route: did not converge (%d of %d segments unplaced)"
      (List.length st.pending) (List.length segs);
  if pin_bias then begin
    let bias_of = Hashtbl.create 16 in
    List.iter (fun s -> Hashtbl.replace bias_of s.seg_net (top_bias s)) segs;
    permute_tracks st ~bias_of
  end;
  let tracks =
    List.fold_left (fun acc w -> max acc (w.w_track + w.w_width)) 0 st.works
  in
  let pieces =
    List.rev_map
      (fun w ->
        { pc_net = w.w_net; pc_lo = w.w_lo; pc_hi = w.w_hi; pc_track = w.w_track;
          pc_width = w.w_width })
      st.works
  in
  (* Vertical wiring per net, in track units. *)
  let verticals = Hashtbl.create 16 in
  let add net v =
    Hashtbl.replace verticals net (v +. Option.value (Hashtbl.find_opt verticals net) ~default:0.0)
  in
  let on_work w =
    let on_pin p =
      let depth =
        if p.pin_from_top then float_of_int w.w_track +. 0.5
        else float_of_int (tracks - w.w_track - w.w_width) +. 0.5
      in
      add w.w_net depth
    in
    List.iter on_pin w.w_pins
  in
  List.iter on_work st.works;
  let by_id = Hashtbl.create 32 in
  List.iter (fun w -> Hashtbl.replace by_id w.w_id w) st.works;
  List.iter
    (fun j ->
      match (Hashtbl.find_opt by_id j.j_left, Hashtbl.find_opt by_id j.j_right) with
      | Some l, Some r -> add l.w_net (float_of_int (abs (l.w_track - r.w_track)))
      | _, _ -> ())
    st.junctions;
  { tracks;
    pieces;
    doglegs = List.length st.junctions;
    violations = 0;
    net_vertical_tracks = Hashtbl.fold (fun net v acc -> (net, v) :: acc) verticals [] }

let vertical_um ~track_um r =
  List.fold_left (fun acc (_, v) -> acc +. (v *. track_um)) 0.0 r.net_vertical_tracks

let net_vertical_um ~track_um r = List.map (fun (net, v) -> (net, v *. track_um)) r.net_vertical_tracks

let check segs r =
  let problems = ref [] and warnings = ref [] in
  let say acc fmt = Format.kasprintf (fun s -> acc := s :: !acc) fmt in
  (* Coverage: each segment's span must be covered by its net's pieces. *)
  let on_seg s =
    let mine = List.filter (fun p -> p.pc_net = s.seg_net) r.pieces in
    let covered x = List.exists (fun p -> p.pc_lo <= x && x <= p.pc_hi) mine in
    let rec scan x = if x > s.seg_hi then () else if covered x then scan (x + 1) else
        say problems "net %d: column %d uncovered" s.seg_net x
    in
    scan s.seg_lo
  in
  List.iter on_seg segs;
  (* No two pieces of different nets may overlap on a track. *)
  let expanded =
    List.concat_map
      (fun p -> List.init p.pc_width (fun k -> (p.pc_track + k, p)))
      r.pieces
  in
  let rec pairs = function
    | [] -> ()
    | (tr1, p1) :: rest ->
      List.iter
        (fun (tr2, p2) ->
          if tr1 = tr2 && p1.pc_net <> p2.pc_net && overlap (p1.pc_lo, p1.pc_hi) (p2.pc_lo, p2.pc_hi)
          then say problems "track %d: nets %d and %d overlap" tr1 p1.pc_net p2.pc_net)
        rest;
      pairs rest
  in
  pairs expanded;
  if r.violations > 0 then say warnings "%d vertical constraints force-broken" r.violations;
  if !problems = [] then Ok !warnings else Error !problems
