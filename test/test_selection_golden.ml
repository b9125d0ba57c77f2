(* Golden selection fingerprints.  For three suite cases, routed
   timing-driven on one domain, the test pins what the Sec. 3.4
   selection decides and how the decisions are reported:

   - the deletion hash (the whole (net, edge) deletion sequence);
   - the per-(phase, criterion) deletion counts, summed from the
     quality hook's [qs_criteria];
   - the number of quality samples of each kind.

   Each case runs three ways: with no telemetry, with the quality hook
   only, and with the quality hook and [Obs] both on.  The three runs
   must agree, and with [Obs] on the [bgr_deletions_total{criterion,
   phase}] counter must equal the quality hook's counts: the two
   criterion sinks are fed by the same commit. *)

let check_int = Alcotest.(check int)

type golden = {
  g_hash : int;
  g_criteria : ((string * string) * int) list;  (* ((phase, criterion), deletions), sorted *)
  g_samples : int * int * int;  (* Q_cadence, Q_pass, Q_phase *)
}

type observed = {
  o_hash : int;
  o_criteria : ((string * string) * int) list;
  o_samples : int * int * int;
}

let route ~quality input =
  let crit = Hashtbl.create 16 in
  let cadence = ref 0 and pass = ref 0 and phase = ref 0 in
  let on_quality s =
    (match s.Router.qs_kind with
    | Router.Q_cadence -> incr cadence
    | Router.Q_pass -> incr pass
    | Router.Q_phase -> incr phase);
    List.iter
      (fun (c, n) ->
        let k = (s.Router.qs_phase, c) in
        Hashtbl.replace crit k (n + Option.value (Hashtbl.find_opt crit k) ~default:0))
      s.Router.qs_criteria
  in
  let options = { Router.default_options with Router.domains = 1 } in
  let on_quality = if quality then Some on_quality else None in
  let outcome = Flow.run ~options ~timing_driven:true ?on_quality input in
  { o_hash = outcome.Flow.o_measurement.Flow.m_deletion_hash;
    o_criteria = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) crit []);
    o_samples = (!cadence, !pass, !phase) }

(* Registration is idempotent: this returns the router's own family. *)
let m_deletions () = Obs.Metrics.counter "bgr_deletions_total" ~labels:[ "criterion"; "phase" ]

let metric_criteria () =
  Obs.Metrics.series (m_deletions ())
  |> List.filter_map (fun (labels, v) ->
         match (List.assoc_opt "phase" labels, List.assoc_opt "criterion" labels) with
         | Some p, Some c when v > 0.0 -> Some ((p, c), int_of_float v)
         | _ -> None)
  |> List.sort compare

let pp_criteria l =
  String.concat "; " (List.map (fun ((p, c), n) -> Printf.sprintf "((%S, %S), %d)" p c n) l)

let check_criteria what expected actual =
  Alcotest.(check string) what (pp_criteria expected) (pp_criteria actual)

let check_golden name g input () =
  let input = input () in
  Obs.disable ();
  Obs.reset ();
  let plain = route ~quality:false input in
  check_int (name ^ ": deletion hash, no telemetry") g.g_hash plain.o_hash;
  let quality = route ~quality:true input in
  check_int (name ^ ": deletion hash, quality hook") g.g_hash quality.o_hash;
  check_criteria (name ^ ": criteria, quality hook") g.g_criteria quality.o_criteria;
  let c, p, ph = g.g_samples and c', p', ph' = quality.o_samples in
  check_int (name ^ ": Q_cadence samples") c c';
  check_int (name ^ ": Q_pass samples") p p';
  check_int (name ^ ": Q_phase samples") ph ph';
  Obs.enable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let observed = route ~quality:true input in
      check_int (name ^ ": deletion hash, Obs + quality hook") g.g_hash observed.o_hash;
      check_criteria (name ^ ": criteria, Obs + quality hook") g.g_criteria observed.o_criteria;
      check_criteria (name ^ ": bgr_deletions_total = quality-hook criteria") observed.o_criteria
        (metric_criteria ()))

let mini =
  { g_hash = 3841584272751667738;
    g_criteria =
      [ (("final_delay", "delay"), 3);
        (("final_delay", "density"), 26);
        (("final_delay", "id_tie_break"), 5);
        (("improve_area", "density"), 39);
        (("improve_area", "gl_ld"), 2);
        (("improve_area", "id_tie_break"), 15);
        (("improve_area", "length"), 2);
        (("improve_delay", "delay"), 2);
        (("improve_delay", "density"), 26);
        (("improve_delay", "id_tie_break"), 6);
        (("initial_route", "delay"), 1);
        (("initial_route", "density"), 69);
        (("initial_route", "id_tie_break"), 33);
        (("initial_route", "length"), 20) ];
    g_samples = (1, 6, 7) }

let c1p1 =
  { g_hash = 4497237050982785072;
    g_criteria =
      [ (("final_delay", "density"), 46);
        (("final_delay", "id_tie_break"), 8);
        (("final_delay", "length"), 2);
        (("improve_area", "density"), 88);
        (("improve_area", "gl_ld"), 4);
        (("improve_area", "id_tie_break"), 8);
        (("improve_area", "length"), 7);
        (("improve_delay", "density"), 23);
        (("improve_delay", "id_tie_break"), 4);
        (("improve_delay", "length"), 1);
        (("initial_route", "delay"), 1);
        (("initial_route", "density"), 267);
        (("initial_route", "id_tie_break"), 31);
        (("initial_route", "length"), 75) ];
    g_samples = (5, 5, 7) }

let c2p1 =
  { g_hash = 769693637757968284;
    g_criteria =
      [ (("final_delay", "delay"), 6);
        (("final_delay", "density"), 107);
        (("final_delay", "id_tie_break"), 6);
        (("final_delay", "length"), 14);
        (("improve_area", "density"), 185);
        (("improve_area", "gl_ld"), 25);
        (("improve_area", "id_tie_break"), 10);
        (("improve_area", "length"), 21);
        (("improve_delay", "delay"), 3);
        (("improve_delay", "density"), 53);
        (("improve_delay", "id_tie_break"), 3);
        (("improve_delay", "length"), 7);
        (("initial_route", "delay"), 4);
        (("initial_route", "density"), 438);
        (("initial_route", "id_tie_break"), 32);
        (("initial_route", "length"), 150) ];
    g_samples = (14, 6, 7) }

let case circuit = (Suite.make_case ~circuit ~placement:Placement.P1).Suite.input

let () =
  Alcotest.run "selection_golden"
    [ ( "selection",
        [ Alcotest.test_case "MINI" `Quick
            (check_golden "MINI" mini (fun () -> (Suite.mini ()).Suite.input));
          Alcotest.test_case "C1P1" `Quick (check_golden "C1P1" c1p1 (fun () -> case "C1"));
          Alcotest.test_case "C2P1" `Quick (check_golden "C2P1" c2p1 (fun () -> case "C2")) ] ) ]
