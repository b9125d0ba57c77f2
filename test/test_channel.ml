(* Tests for the left-edge channel router: track packing, vertical
   constraints, doglegs, and randomized structural audits. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let seg ?(w = 1) net lo hi pins =
  { Channel_router.seg_net = net;
    seg_lo = lo;
    seg_hi = hi;
    seg_pins = List.map (fun (x, top) -> { Channel_router.pin_x = x; pin_from_top = top }) pins;
    seg_width = w }

let test_disjoint_share_track () =
  let r = Channel_router.route [ seg 0 0 4 [ (0, true) ]; seg 1 6 9 [ (7, true) ] ] in
  check_int "one track suffices" 1 r.Channel_router.tracks;
  check_int "no doglegs" 0 r.Channel_router.doglegs;
  check_int "no violations" 0 r.Channel_router.violations;
  match Channel_router.check [ seg 0 0 4 [ (0, true) ]; seg 1 6 9 [ (7, true) ] ] r with
  | Ok _ -> ()
  | Error problems -> Alcotest.failf "audit failed: %s" (String.concat "; " problems)

let test_overlapping_stack () =
  let segs = [ seg 0 0 5 []; seg 1 3 8 []; seg 2 4 6 [] ] in
  let r = Channel_router.route segs in
  check_int "three overlapping nets need three tracks" 3 r.Channel_router.tracks

let test_vertical_constraint_order () =
  (* At column 3, net 0 pins from the top and net 1 from the bottom:
     net 0 must take a higher track. *)
  let segs = [ seg 1 0 6 [ (3, false) ]; seg 0 2 8 [ (3, true) ] ] in
  let r = Channel_router.route segs in
  let track_of net =
    List.find (fun p -> p.Channel_router.pc_net = net) r.Channel_router.pieces
  in
  check_bool "top-pinned net above bottom-pinned net" true
    ((track_of 0).Channel_router.pc_track < (track_of 1).Channel_router.pc_track)

let test_vcg_chain () =
  (* a above b at x=2, b above c at x=5: three tracks in order. *)
  let segs =
    [ seg 2 0 9 [ (5, false) ];
      seg 1 0 9 [ (2, false); (5, true) ];
      seg 0 0 9 [ (2, true) ] ]
  in
  let r = Channel_router.route segs in
  let track_of net =
    (List.find (fun p -> p.Channel_router.pc_net = net) r.Channel_router.pieces).Channel_router.pc_track
  in
  check_bool "chain stacks in order" true (track_of 0 < track_of 1 && track_of 1 < track_of 2)

let test_cycle_dogleg () =
  (* Classic 2-net VCG cycle: a above b at x=2, b above a at x=7.
     Requires a dogleg. *)
  let segs = [ seg 0 0 9 [ (2, true); (7, false) ]; seg 1 0 9 [ (2, false); (7, true) ] ] in
  let r = Channel_router.route segs in
  check_bool "cycle resolved" true (r.Channel_router.doglegs >= 1 || r.Channel_router.violations >= 1);
  match Channel_router.check segs r with
  | Ok _ -> ()
  | Error problems -> Alcotest.failf "audit failed: %s" (String.concat "; " problems)

let test_multipitch_tracks () =
  let segs = [ seg ~w:3 0 0 9 [ (1, true) ]; seg 1 0 9 [] ] in
  let r = Channel_router.route segs in
  check_int "wide net + thin net need 4 tracks" 4 r.Channel_router.tracks

let test_vertical_lengths () =
  (* One net alone on one track: its pin descends half a track from the
     top, (tracks - 0 - 1 + 0.5) from the bottom. *)
  let segs = [ seg 0 0 5 [ (1, true); (4, false) ] ] in
  let r = Channel_router.route segs in
  check_int "single track" 1 r.Channel_router.tracks;
  (match r.Channel_router.net_vertical_tracks with
  | [ (0, v) ] -> Alcotest.(check (float 1e-9)) "0.5 down + 0.5 up" 1.0 v
  | _ -> Alcotest.fail "expected one net's verticals");
  Alcotest.(check (float 1e-9)) "um scaling" 8.0 (Channel_router.vertical_um ~track_um:8.0 r)

let test_degenerate_point_segment () =
  let segs = [ seg 0 3 3 [ (3, true) ] ] in
  let r = Channel_router.route segs in
  check_int "a point still gets a track" 1 r.Channel_router.tracks

(* Random segments: the audit must pass, tracks must be at least the
   column density, and every net's verticals must be accounted for. *)
let random_segs_gen =
  QCheck.Gen.(
    let* n = int_range 1 10 in
    let mk net =
      let* a = int_range 0 19 in
      let* b = int_range 0 19 in
      let lo = min a b and hi = max a b in
      let* top_pin = int_range lo hi in
      let* bot_pin = int_range lo hi in
      let* with_top = bool in
      let* with_bot = bool in
      let pins =
        (if with_top then [ (top_pin, true) ] else []) @ if with_bot then [ (bot_pin, false) ] else []
      in
      return (seg net lo hi pins)
    in
    let rec build k acc =
      if k >= n then return (List.rev acc)
      else
        let* s = mk k in
        build (k + 1) (s :: acc)
    in
    build 0 [])

let prop_random_channels =
  QCheck.Test.make ~name:"channel: random inputs route and audit clean" ~count:200
    (QCheck.make random_segs_gen)
    (fun segs ->
      let r = Channel_router.route segs in
      let audit = match Channel_router.check segs r with Ok _ -> true | Error _ -> false in
      (* density lower bound on tracks *)
      let density =
        let max_col = 20 in
        let best = ref 0 in
        for x = 0 to max_col do
          let d =
            List.fold_left
              (fun acc s ->
                if s.Channel_router.seg_lo <= x && x <= s.Channel_router.seg_hi then
                  acc + s.Channel_router.seg_width
                else acc)
              0 segs
          in
          if d > !best then best := d
        done;
        !best
      in
      audit && r.Channel_router.tracks >= density)

(* --- greedy router ----------------------------------------------------- *)

let test_greedy_basics () =
  let segs = [ seg 0 0 4 [ (0, true); (4, false) ]; seg 1 6 9 [ (7, true) ] ] in
  let r = Greedy_router.route segs in
  check_int "disjoint nets share a track" 1 r.Channel_router.tracks;
  check_int "no violations" 0 r.Channel_router.violations;
  (match Channel_router.check segs r with
  | Ok _ -> ()
  | Error problems -> Alcotest.failf "greedy audit: %s" (String.concat "; " problems))

let test_greedy_vcg_order () =
  (* Top pin and bottom pin of different nets at one column: greedy
     serves them with verticals that cannot overlap, so both route. *)
  let segs = [ seg 1 0 6 [ (3, false) ]; seg 0 2 8 [ (3, true) ] ] in
  let r = Greedy_router.route segs in
  check_int "no violations" 0 r.Channel_router.violations;
  match Channel_router.check segs r with
  | Ok _ -> ()
  | Error problems -> Alcotest.failf "greedy audit: %s" (String.concat "; " problems)

let test_greedy_cycle () =
  (* The VCG cycle that forces the left-edge router to dogleg is routed
     naturally by per-column verticals. *)
  let segs = [ seg 0 0 9 [ (2, true); (7, false) ]; seg 1 0 9 [ (2, false); (7, true) ] ] in
  let r = Greedy_router.route segs in
  check_int "no violations" 0 r.Channel_router.violations;
  match Channel_router.check segs r with
  | Ok _ -> ()
  | Error problems -> Alcotest.failf "greedy audit: %s" (String.concat "; " problems)

let test_greedy_multipitch () =
  let segs = [ seg ~w:3 0 0 9 [ (1, true) ]; seg 1 0 9 [ (5, false) ] ] in
  let r = Greedy_router.route segs in
  check_int "wide + thin tracks" 4 r.Channel_router.tracks;
  match Channel_router.check segs r with
  | Ok _ -> ()
  | Error problems -> Alcotest.failf "greedy audit: %s" (String.concat "; " problems)

let prop_greedy_random =
  QCheck.Test.make ~name:"greedy: random inputs route and audit clean" ~count:200
    (QCheck.make random_segs_gen)
    (fun segs ->
      let r = Greedy_router.route segs in
      match Channel_router.check segs r with Ok _ -> true | Error _ -> false)

let prop_routers_agree_on_density_bound =
  QCheck.Test.make ~name:"greedy and left-edge both respect the density bound" ~count:100
    (QCheck.make random_segs_gen)
    (fun segs ->
      let density =
        let best = ref 0 in
        for x = 0 to 20 do
          let d =
            List.fold_left
              (fun acc s ->
                if s.Channel_router.seg_lo <= x && x <= s.Channel_router.seg_hi then
                  acc + s.Channel_router.seg_width
                else acc)
              0 segs
          in
          if d > !best then best := d
        done;
        !best
      in
      let le = Channel_router.route segs in
      let gr = Greedy_router.route segs in
      le.Channel_router.tracks >= density && gr.Channel_router.tracks >= density)

let prop_pin_bias_preserves_structure =
  QCheck.Test.make ~name:"pin bias: same tracks, clean audit, permuted pieces" ~count:200
    (QCheck.make random_segs_gen)
    (fun segs ->
      let plain = Channel_router.route segs in
      let biased = Channel_router.route ~pin_bias:true segs in
      let audit r = match Channel_router.check segs r with Ok _ -> true | Error _ -> false in
      let spans r =
        List.map
          (fun (p : Channel_router.piece) -> (p.Channel_router.pc_net, p.Channel_router.pc_lo, p.Channel_router.pc_hi))
          r.Channel_router.pieces
        |> List.sort compare
      in
      plain.Channel_router.tracks = biased.Channel_router.tracks
      && audit biased
      && spans plain = spans biased)

(* Random channels for the reference comparison, built around a VCG
   cycle: k segments in a ring, segment i pinned from the top at column
   c_i and from the bottom at c_(i-1), each with up to two extra pins,
   plus random segments over the same few columns, all shuffled.  So top
   and bottom pins share columns, spans overlap, widths run 1-3, and
   most cases need one or more dogleg splits. *)
let vcg_segs_gen =
  QCheck.Gen.(
    let* n_cols = int_range 4 12 in
    let* k = int_range 2 4 in
    let* cols = map Array.of_list (shuffle_l (List.init n_cols Fun.id)) in
    let width = frequency [ (4, return 1); (1, int_range 2 3) ] in
    let pin = pair (int_range 0 (n_cols - 1)) bool in
    let ring_seg i =
      let* extra = list_size (int_range 0 2) pin in
      let pins = (cols.(i), true) :: (cols.((i + k - 1) mod k), false) :: extra in
      let xs = List.map fst pins in
      let* grow_lo = int_range 0 2 and* grow_hi = int_range 0 2 in
      let lo = max 0 (List.fold_left min max_int xs - grow_lo) in
      let hi = min (n_cols - 1) (List.fold_left max min_int xs + grow_hi) in
      let* w = width in
      return (seg ~w i lo hi pins)
    in
    let other_seg j =
      let* a = int_range 0 (n_cols - 1) and* b = int_range 0 (n_cols - 1) in
      let lo = min a b and hi = max a b in
      let* w = width in
      let* pins = list_size (int_range 0 3) (pair (int_range lo hi) bool) in
      return (seg ~w (k + j) lo hi pins)
    in
    let* ring = flatten_l (List.init k ring_seg) in
    let* m = int_range 0 8 in
    let* others = flatten_l (List.init m other_seg) in
    shuffle_l (ring @ others))

let show_segs segs =
  String.concat "; "
    (List.map
       (fun s ->
         Printf.sprintf "net %d [%d,%d] w%d pins %s" s.Channel_router.seg_net s.Channel_router.seg_lo
           s.Channel_router.seg_hi s.Channel_router.seg_width
           (String.concat ","
              (List.map
                 (fun p ->
                   Printf.sprintf "%d%s" p.Channel_router.pin_x
                     (if p.Channel_router.pin_from_top then "t" else "b"))
                 s.Channel_router.seg_pins)))
       segs)

(* The router against its slow reference: structurally equal results,
   list order included, or the same non-convergence error. *)
let agrees ~pin_bias segs =
  let outcome route =
    match route segs with r -> Ok r | exception Bgr_error.Error e -> Error (Bgr_error.to_string e)
  in
  outcome (Channel_router.route ~pin_bias) = outcome (Ref_channel_router.route ~pin_bias)

let prop_matches_reference =
  QCheck.Test.make ~name:"cached vcg: same result as the reference router" ~count:600
    (QCheck.make ~print:show_segs vcg_segs_gen)
    (fun segs -> agrees ~pin_bias:false segs && agrees ~pin_bias:true segs)

(* The property is only as good as its inputs: on a fixed sample the
   generator must produce single and repeated dogleg splits.  It cannot
   produce a force-broken edge: a piece on a VCG cycle has its in-edge
   and its out-edge at two different columns (one column yields at most
   one edge), so [break_cycle] always finds a piece to split. *)
let test_reference_cases_split () =
  let cases = QCheck.Gen.generate ~rand:(Random.State.make [| 29 |]) ~n:200 vcg_segs_gen in
  let doglegs = List.map (fun segs -> (Ref_channel_router.route segs).Channel_router.doglegs) cases in
  check_bool "some cases split once" true (List.mem 1 doglegs);
  check_bool "some cases split three times or more" true (List.exists (fun d -> d >= 3) doglegs);
  check_bool "no case force-breaks an edge" true
    (List.for_all (fun segs -> (Ref_channel_router.route segs).Channel_router.violations = 0) cases)

let test_pin_bias_moves_top_heavy_up () =
  (* Two independent nets: one all-top pins, one all-bottom; with the
     bias the top-heavy one must take the upper track. *)
  let segs = [ seg 0 0 9 [ (2, false); (7, false) ]; seg 1 0 9 [ (3, true); (6, true) ] ] in
  let r = Channel_router.route ~pin_bias:true segs in
  let track_of net =
    (List.find (fun p -> p.Channel_router.pc_net = net) r.Channel_router.pieces).Channel_router.pc_track
  in
  check_bool "top-heavy above bottom-heavy" true (track_of 1 < track_of 0)

let suite =
  [ Alcotest.test_case "disjoint nets share a track" `Quick test_disjoint_share_track;
    QCheck_alcotest.to_alcotest prop_pin_bias_preserves_structure;
    Alcotest.test_case "pin bias moves top-heavy nets up" `Quick test_pin_bias_moves_top_heavy_up;
    Alcotest.test_case "greedy basics" `Quick test_greedy_basics;
    Alcotest.test_case "greedy vcg order" `Quick test_greedy_vcg_order;
    Alcotest.test_case "greedy handles the vcg cycle" `Quick test_greedy_cycle;
    Alcotest.test_case "greedy multi-pitch" `Quick test_greedy_multipitch;
    QCheck_alcotest.to_alcotest prop_greedy_random;
    QCheck_alcotest.to_alcotest prop_routers_agree_on_density_bound;
    Alcotest.test_case "overlapping nets stack" `Quick test_overlapping_stack;
    Alcotest.test_case "vertical constraint order" `Quick test_vertical_constraint_order;
    Alcotest.test_case "vcg chain" `Quick test_vcg_chain;
    Alcotest.test_case "vcg cycle dogleg" `Quick test_cycle_dogleg;
    Alcotest.test_case "multi-pitch tracks" `Quick test_multipitch_tracks;
    Alcotest.test_case "vertical lengths" `Quick test_vertical_lengths;
    Alcotest.test_case "degenerate point" `Quick test_degenerate_point_segment;
    QCheck_alcotest.to_alcotest prop_random_channels;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    Alcotest.test_case "reference comparison reaches doglegs" `Quick test_reference_cases_split ]

let () = Alcotest.run "channel" [ ("channel", suite) ]
