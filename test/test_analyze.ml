(* Solution-quality telemetry: .bgrq framing round trip and salvage
   discipline, the summarizer and its quality.json round trip, the A/B
   diff verdicts, an end-to-end recorded route whose final sample
   matches the signoff margin, and the headline determinism property —
   recording quality telemetry leaves the deletion hash byte-identical,
   sequentially and on four domains. *)

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)

(* dune runtest runs in test/; dune exec from the repo root. *)
let corpus_dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Bitwise float equality that treats nan = nan (telemetry carries nan
   for "no timing data"). *)
let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

let sample ?(kind = Router.Q_cadence) ?(phase = "initial_route") ?(pass = 0) ?(deletions = 0)
    ?(worst = -12.5) ?(worst_c = 2) ?(total_neg = -40.25) ?(violations = 3)
    ?(ep = (-33.5, 210.0)) ?(density = [| 4; 7; 2 |]) ?(criteria = [ ("delay", 5); ("density", 2) ])
    ?(margins = [||]) () =
  { Router.qs_kind = kind;
    qs_phase = phase;
    qs_pass = pass;
    qs_deletions = deletions;
    qs_worst_margin_ps = worst;
    qs_worst_constraint = worst_c;
    qs_total_negative_ps = total_neg;
    qs_violations = violations;
    qs_ep_slack_min_ps = fst ep;
    qs_ep_slack_max_ps = snd ep;
    qs_density = density;
    qs_criteria = criteria;
    qs_margins = margins }

let same_sample (a : Router.quality_sample) (b : Router.quality_sample) =
  a.Router.qs_kind = b.Router.qs_kind
  && a.qs_phase = b.qs_phase
  && a.qs_pass = b.qs_pass
  && a.qs_deletions = b.qs_deletions
  && same_float a.qs_worst_margin_ps b.qs_worst_margin_ps
  && a.qs_worst_constraint = b.qs_worst_constraint
  && same_float a.qs_total_negative_ps b.qs_total_negative_ps
  && a.qs_violations = b.qs_violations
  && same_float a.qs_ep_slack_min_ps b.qs_ep_slack_min_ps
  && same_float a.qs_ep_slack_max_ps b.qs_ep_slack_max_ps
  && a.qs_density = b.qs_density
  && a.qs_criteria = b.qs_criteria
  && Array.length a.qs_margins = Array.length b.qs_margins
  && Array.for_all2 same_float a.qs_margins b.qs_margins

let fixture_samples () =
  [ sample ~deletions:64 ();
    sample ~kind:Router.Q_pass ~phase:"recover_violations" ~pass:2 ~deletions:130
      ~criteria:[ ("delay_count", 1) ] ();
    (* nan/infinity fields and a no-constraint shape must survive framing *)
    sample ~kind:Router.Q_phase ~phase:"improve_area" ~deletions:200 ~worst:infinity
      ~worst_c:(-1) ~total_neg:0.0 ~violations:0 ~ep:(nan, nan) ~criteria:[]
      ~margins:[| 10.0; nan; -3.5 |] () ]

(* ---- framing round trip -------------------------------------------- *)

let test_qlog_roundtrip () =
  let path = Filename.temp_file "bgr_qlog" ".bgrq" in
  let w = Qlog.create ~path in
  let samples = fixture_samples () in
  List.iter (fun s -> ignore (Qlog.append w s)) samples;
  check_int "writer counts appends" (List.length samples) (Qlog.appended w);
  Qlog.close w;
  Qlog.close w;
  (* idempotent *)
  (match Qlog.read ~path with
  | Error e -> Alcotest.failf "read: %s" (Bgr_error.to_string e)
  | Ok r ->
    check_bool "no torn tail" false r.Qlog.torn;
    check_bool "no warnings" true (r.Qlog.warnings = []);
    check_int "all records back" (List.length samples) (List.length r.Qlog.records);
    List.iter2
      (fun s (got : Qlog.record) ->
        check_bool "sample round-trips bit-exactly" true (same_sample s got.Qlog.q_sample);
        check_bool "timestamp is non-negative" true (got.Qlog.q_t_s >= 0.0))
      samples r.Qlog.records);
  Sys.remove path

let test_qlog_torn_tail () =
  let path = Filename.temp_file "bgr_qlog" ".bgrq" in
  let w = Qlog.create ~path in
  List.iter (fun s -> ignore (Qlog.append w s)) (fixture_samples ());
  Qlog.close w;
  let whole = read_file path in
  (* chop bytes off the tail: every cut inside the final frame must
     salvage the first two records with a warning, never error *)
  List.iter
    (fun cut ->
      write_file path (String.sub whole 0 (String.length whole - cut));
      match Qlog.read ~path with
      | Error e -> Alcotest.failf "cut %d: %s" cut (Bgr_error.to_string e)
      | Ok r ->
        check_bool (Printf.sprintf "cut %d: torn" cut) true r.Qlog.torn;
        check_int (Printf.sprintf "cut %d: first records salvaged" cut) 2
          (List.length r.Qlog.records);
        check_bool (Printf.sprintf "cut %d: warning recorded" cut) true (r.Qlog.warnings <> []))
    [ 1; 4; 40 ];
  Sys.remove path

let test_qlog_corrupt_middle () =
  let path = Filename.temp_file "bgr_qlog" ".bgrq" in
  let w = Qlog.create ~path in
  List.iter (fun s -> ignore (Qlog.append w s)) (fixture_samples ());
  Qlog.close w;
  let whole = Bytes.of_string (read_file path) in
  (* flip a payload byte of the FIRST record: damage before the final
     frame is corruption, not a torn tail *)
  let off = String.length Qlog.magic + 8 in
  Bytes.set whole off (Char.chr (Char.code (Bytes.get whole off) lxor 0xFF));
  write_file path (Bytes.to_string whole);
  (match Qlog.read ~path with
  | Ok _ -> Alcotest.fail "corrupt middle record must not be salvaged"
  | Error e ->
    check_bool "structured parse error" true (e.Bgr_error.code = Bgr_error.Parse));
  (* a non-log file is rejected up front *)
  write_file path "not a log at all";
  (match Qlog.read ~path with
  | Ok _ -> Alcotest.fail "bad magic must be rejected"
  | Error e -> check_bool "bad magic is a parse error" true (e.Bgr_error.code = Bgr_error.Parse));
  Sys.remove path

(* The golden quality log (test/corpus/frames/quality.bgrq) was written
   by the encoder before the framing moved into [Frame]: one cadence,
   one pass and one phase record. *)
let golden_qlog =
  [ { Qlog.q_t_s = 0.25;
      q_sample =
        sample ~deletions:64 ~worst:nan ~worst_c:(-1) ~total_neg:0.0 ~violations:0 ~ep:(nan, nan)
          ~density:[| 1; 3; 2; 0 |] ~criteria:[ ("only_candidate", 64) ] () };
    { Qlog.q_t_s = 1.5;
      q_sample =
        sample ~kind:Router.Q_pass ~phase:"improve_delay" ~pass:2 ~deletions:180 ~worst_c:3
          ~total_neg:(-12.5) ~violations:1 ~ep:(-12.5, 340.25) ~density:[| 3; 5; 2; 4 |]
          ~criteria:[ ("delay", 10); ("density", 2) ] () };
    { Qlog.q_t_s = 2.75;
      q_sample =
        sample ~kind:Router.Q_phase ~phase:"improve_area" ~deletions:260 ~worst:8.0 ~worst_c:1
          ~total_neg:0.0 ~violations:0 ~ep:(8.0, 400.0) ~density:[| 2; 4; 2; 3 |]
          ~criteria:[ ("length", 5) ] ~margins:[| 8.0; 55.5; 120.125 |] () } ]

let qlog_bytes records = Qlog.magic ^ String.concat "" (List.map Qlog.encode_frame records)

let test_qlog_golden () =
  let golden = Util.read_fixture "quality.bgrq" in
  check_string "re-encodes byte for byte" golden (qlog_bytes golden_qlog);
  match Qlog.read_string golden with
  | Error e -> Alcotest.failf "read: %s" (Bgr_error.to_string e)
  | Ok r ->
    check_bool "not torn" false r.Qlog.torn;
    check_int "three records" 3 (List.length r.Qlog.records);
    List.iter2
      (fun (want : Qlog.record) (got : Qlog.record) ->
        check_bool "time" true (same_float want.Qlog.q_t_s got.Qlog.q_t_s);
        check_bool "sample" true (same_sample want.Qlog.q_sample got.Qlog.q_sample))
      golden_qlog r.Qlog.records

(* A u16 count caps the density and margin arrays: a longer array is
   cut to the count instead of writing a record its reader rejects. *)
let test_qlog_count_clamp () =
  let big = Array.init 70_000 float_of_int in
  let s = sample ~kind:Router.Q_phase ~density:(Array.init 70_000 Fun.id) ~margins:big () in
  match Qlog.read_string (qlog_bytes [ { Qlog.q_t_s = 1.0; q_sample = s } ]) with
  | Error e -> Alcotest.failf "oversized sample must stay readable: %s" (Bgr_error.to_string e)
  | Ok { Qlog.records = [ r ]; torn = false; _ } ->
    check_bool "first 65,535 margins" true (r.Qlog.q_sample.qs_margins = Array.sub big 0 0xFFFF);
    check_bool "first 65,535 densities" true
      (r.Qlog.q_sample.qs_density = Array.init 0xFFFF Fun.id)
  | Ok _ -> Alcotest.fail "expected exactly one intact record"

(* ---- summarize + json ---------------------------------------------- *)

let summary_fixture () =
  let r t s = { Qlog.q_t_s = t; q_sample = s } in
  Quality.summarize
    [ r 0.1 (sample ~deletions:64 ());
      r 0.2 (sample ~deletions:128 ~criteria:[ ("density", 4) ] ());
      r 0.3
        (sample ~kind:Router.Q_phase ~phase:"initial_route" ~deletions:150
           ~criteria:[ ("length", 1) ] ());
      r 0.5
        (sample ~kind:Router.Q_pass ~phase:"recover_violations" ~pass:1 ~deletions:160
           ~criteria:[ ("delay_count", 2) ] ());
      r 0.9
        (sample ~kind:Router.Q_phase ~phase:"recover_violations" ~pass:0 ~deletions:161
           ~worst:(-5.0) ~violations:1 ~density:[| 9; 3; 1 |] ~criteria:[]
           ~margins:[| -5.0; 40.0 |] ()) ]

let test_summarize () =
  let s = summary_fixture () in
  check_int "samples" 5 s.Quality.sm_samples;
  (match s.Quality.sm_phases with
  | [ p1; p2 ] ->
    check_string "phase 1" "initial_route" p1.Quality.ph_phase;
    check_int "phase 1 deletions" 150 p1.Quality.ph_deletions;
    check_bool "phase 1 criteria merged" true
      (p1.Quality.ph_criteria = [ ("delay", 5); ("density", 6); ("length", 1) ]);
    check_string "phase 2" "recover_violations" p2.Quality.ph_phase;
    check_int "phase 2 passes" 1 p2.Quality.ph_passes;
    check_bool "phase 2 wall from deltas" true (Float.abs (p2.Quality.ph_wall_s -. 0.6) < 1e-9);
    check_int "phase 2 peak density" 9 p2.Quality.ph_peak_density;
    check_bool "phase 2 criteria" true (p2.Quality.ph_criteria = [ ("delay_count", 2) ])
  | ps -> Alcotest.failf "expected 2 phase stats, got %d" (List.length ps));
  check_bool "final worst margin" true (same_float s.Quality.sm_final_worst_margin_ps (-5.0));
  check_int "final violations" 1 s.Quality.sm_final_violations;
  check_int "final peak density" 9 s.Quality.sm_final_peak_density;
  check_int "final deletions" 161 s.Quality.sm_final_deletions;
  check_bool "margins kept from last phase record" true
    (s.Quality.sm_margins = [| -5.0; 40.0 |]);
  check_bool "run-total criteria" true
    (s.Quality.sm_criteria
    = [ ("delay", 5); ("delay_count", 2); ("density", 6); ("length", 1) ]);
  (* empty stream: all-zero summary, and the renderers still produce
     well-formed documents *)
  let e = Quality.summarize [] in
  check_int "empty: no samples" 0 e.Quality.sm_samples;
  check_bool "empty: convergence svg renders" true
    (String.length (Qsvg.convergence []) > 0);
  check_bool "empty: waterfall svg renders" true
    (String.length (Qsvg.slack_waterfall e) > 0)

let test_json_roundtrip () =
  let s = summary_fixture () in
  let text = Quality.to_json s in
  match Quality.of_json_string text with
  | Error e -> Alcotest.failf "parse back: %s" (Bgr_error.to_string e)
  | Ok got ->
    check_string "schema" Quality.schema got.Quality.sm_schema;
    check_int "samples" s.Quality.sm_samples got.Quality.sm_samples;
    check_bool "worst margin" true
      (same_float s.Quality.sm_final_worst_margin_ps got.Quality.sm_final_worst_margin_ps);
    check_int "violations" s.Quality.sm_final_violations got.Quality.sm_final_violations;
    check_int "peak density" s.Quality.sm_final_peak_density got.Quality.sm_final_peak_density;
    check_bool "criteria" true (s.Quality.sm_criteria = got.Quality.sm_criteria);
    check_int "phases" (List.length s.Quality.sm_phases) (List.length got.Quality.sm_phases);
    check_bool "phase fields" true
      (List.for_all2
         (fun (a : Quality.phase_stat) (b : Quality.phase_stat) ->
           a.Quality.ph_phase = b.Quality.ph_phase
           && a.Quality.ph_passes = b.Quality.ph_passes
           && a.Quality.ph_deletions = b.Quality.ph_deletions
           && a.Quality.ph_criteria = b.Quality.ph_criteria)
         s.Quality.sm_phases got.Quality.sm_phases);
    check_bool "margins survive (nan-aware)" true
      (Array.for_all2 same_float s.Quality.sm_margins got.Quality.sm_margins);
    (* non-finite floats rendered as null must read back as nan *)
    let inf_s =
      Quality.summarize
        [ { Qlog.q_t_s = 0.0;
            q_sample =
              sample ~kind:Router.Q_phase ~worst:infinity ~ep:(nan, nan) ~margins:[| nan |] ()
          } ]
    in
    (match Quality.of_json_string (Quality.to_json inf_s) with
    | Error e -> Alcotest.failf "infinity roundtrip: %s" (Bgr_error.to_string e)
    | Ok got ->
      check_bool "infinity reads back as nan (null)" true
        (Float.is_nan got.Quality.sm_final_worst_margin_ps));
    (* mandatory keys: dropping "final" must fail *)
    (match Quality.of_json_string "{\"schema\":\"bgr-quality-1\",\"wall_s\":1,\"phases\":[]}" with
    | Ok _ -> Alcotest.fail "missing final section must be rejected"
    | Error e -> check_bool "missing key is a parse error" true (e.Bgr_error.code = Bgr_error.Parse))

(* ---- the A/B diff --------------------------------------------------- *)

let test_diff_verdicts () =
  let s = summary_fixture () in
  let self = Quality.diff s s in
  check_bool "self diff passes" false (Quality.regressed self);
  (* worse margin and an extra violation: both must trip *)
  let worse =
    { s with
      Quality.sm_final_worst_margin_ps = s.Quality.sm_final_worst_margin_ps -. 100.0;
      sm_final_violations = s.Quality.sm_final_violations + 1 }
  in
  let checks = Quality.diff s worse in
  check_bool "perturbed run regresses" true (Quality.regressed checks);
  let verdict_of metric =
    match List.find_opt (fun (c : Quality.check) -> c.Quality.ck_metric = metric) checks with
    | Some c -> c.Quality.ck_verdict
    | None -> Alcotest.failf "no %s check" metric
  in
  check_bool "margin check regressed" true (verdict_of "worst margin (ps)" = Quality.Regressed);
  check_bool "violations check regressed" true (verdict_of "violations" = Quality.Regressed);
  check_bool "density check unchanged" true
    (verdict_of "peak density (tracks)" = Quality.Pass);
  (* an improvement is not a regression *)
  let better =
    { s with Quality.sm_final_worst_margin_ps = s.Quality.sm_final_worst_margin_ps +. 50.0 }
  in
  check_bool "improvement passes" false (Quality.regressed (Quality.diff s better));
  (* wall-clock: only beyond factor + floor *)
  let slow = { s with Quality.sm_wall_s = (s.Quality.sm_wall_s *. 1.4) +. 0.5 } in
  check_bool "mild slowdown within floor passes" false
    (Quality.regressed (Quality.diff s slow));
  let crawl = { s with Quality.sm_wall_s = (s.Quality.sm_wall_s *. 10.0) +. 100.0 } in
  check_bool "big slowdown regresses" true (Quality.regressed (Quality.diff s crawl));
  (* a run without timing data never regresses on margin *)
  let no_sta = { s with Quality.sm_final_worst_margin_ps = nan } in
  check_bool "nan margin is skipped, not regressed" false
    (Quality.regressed (Quality.diff s { no_sta with Quality.sm_final_violations = s.Quality.sm_final_violations }))

(* ---- end-to-end: a recorded route ----------------------------------- *)

let load_corpus name =
  let path = Filename.concat corpus_dir name in
  match
    Result.bind (Design_io.read_result path) Design_check.validate
    |> Result.map_error (Bgr_error.with_file path)
  with
  | Ok bundle -> Design_io.to_flow_input bundle
  | Error e -> Alcotest.failf "%s: %s" name (Bgr_error.to_string e)

let test_recorded_route () =
  let input = load_corpus "valid_mini.bgr" in
  let path = Filename.temp_file "bgr_qlog_e2e" ".bgrq" in
  let w = Qlog.create ~path in
  let outcome = Flow.run ~on_quality:(fun s -> ignore (Qlog.append w s)) input in
  Qlog.close w;
  let records =
    match Qlog.read ~path with
    | Ok r ->
      check_bool "e2e log is clean" true ((not r.Qlog.torn) && r.Qlog.warnings = []);
      r.Qlog.records
    | Error e -> Alcotest.failf "e2e read: %s" (Bgr_error.to_string e)
  in
  check_bool "samples were recorded" true (records <> []);
  let s = Quality.summarize records in
  let last = List.nth records (List.length records - 1) in
  check_string "last sample is the post-metrology probe" "metrology"
    last.Qlog.q_sample.Router.qs_phase;
  (* the acceptance criterion: the log's final worst margin is the
     signoff margin of the finished route *)
  check_bool "final worst margin equals the measured margin" true
    (same_float s.Quality.sm_final_worst_margin_ps outcome.Flow.o_measurement.Flow.m_margin_ps);
  check_int "final violations match the measurement"
    outcome.Flow.o_measurement.Flow.m_violations s.Quality.sm_final_violations;
  check_int "final deletions match the measurement"
    outcome.Flow.o_measurement.Flow.m_deletions s.Quality.sm_final_deletions;
  check_bool "phase stats cover the routing phases" true
    (List.exists
       (fun (p : Quality.phase_stat) -> p.Quality.ph_phase = "initial_route")
       s.Quality.sm_phases);
  check_bool "criterion attribution is non-empty" true
    (List.fold_left (fun acc (_, c) -> acc + c) 0 s.Quality.sm_criteria > 0);
  (* the explorers render well-formed-looking documents from real data *)
  let svg = Qsvg.convergence records in
  check_bool "convergence svg has the xml namespace" true
    (String.length svg > 64 && String.sub svg 0 4 = "<svg");
  check_bool "heatmap renders" true (String.length (Qsvg.density_heatmap records) > 0);
  check_bool "waterfall renders" true (String.length (Qsvg.slack_waterfall s) > 0);
  (* self-diff of a real run passes *)
  check_bool "run diffed against itself passes" false
    (Quality.regressed (Quality.diff s s));
  Sys.remove path

(* ---- determinism: recording never changes the routing --------------- *)

(* Exact fingerprint: floats as hex so the comparison is bitwise, plus
   the order-sensitive deletion hash (same idiom as test_obs). *)
let fingerprint (outcome : Flow.outcome) =
  let m = outcome.Flow.o_measurement in
  Printf.sprintf "delay=%h area=%h len=%h viol=%d del=%d tracks=[%s] hash=%d"
    m.Flow.m_delay_ps m.Flow.m_area_mm2 m.Flow.m_length_mm m.Flow.m_violations
    m.Flow.m_deletions
    (String.concat ";" (Array.to_list (Array.map string_of_int m.Flow.m_tracks)))
    (Router.deletion_hash outcome.Flow.o_router)

let test_bit_identity () =
  List.iter
    (fun (name, domains) ->
      let input = load_corpus name in
      let options = { Router.default_options with Router.domains } in
      let plain = fingerprint (Flow.run ~options input) in
      let path = Filename.temp_file "bgr_qlog_id" ".bgrq" in
      let w = Qlog.create ~path in
      let n = ref 0 in
      let recorded =
        fingerprint
          (Flow.run ~options
             ~on_quality:(fun s ->
               incr n;
               ignore (Qlog.append w s))
             input)
      in
      Qlog.close w;
      check_bool (name ^ ": the recorded run actually sampled") true (!n > 0);
      Sys.remove path;
      check_string
        (Printf.sprintf "%s, %d domain(s): recording on = recording off" name domains)
        plain recorded)
    [ ("valid_mini.bgr", 1); ("valid_mini.bgr", 4); ("valid_gen.bgr", 1); ("valid_gen.bgr", 4) ]

(* ---- crash forensics ------------------------------------------------ *)

let pm_counter = ref 0

let pm_dir () =
  incr pm_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bgrpm%d-%d" (Unix.getpid ()) !pm_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

(* Synthesize a flight dump by actually recording and dumping — the
   same code path a dying process takes. *)
let bake_flight dir ?(name = Flight.default_filename) ~reason events =
  Flight.reset_for_tests ();
  Flight.set_clock_for_tests (Some (fun () -> 1.0));
  List.iter (fun (k, a, b, c, d) -> Flight.record k ~a ~b ~c ~d) events;
  let ok = Flight.dump_file ~reason (Filename.concat dir name) in
  Flight.set_clock_for_tests None;
  Flight.reset_for_tests ();
  check_bool "fixture dump written" true ok

let analyze_ok dir =
  match Postmortem.analyze ~dir with
  | Ok r -> r
  | Error e -> Alcotest.failf "analyze: %s" (Bgr_error.to_string e)

let test_postmortem_inputs () =
  (match Postmortem.analyze ~dir:"/nonexistent/bgr-postmortem" with
  | Error e -> check_bool "missing dir is Validate" true (e.Bgr_error.code = Bgr_error.Validate)
  | Ok _ -> Alcotest.fail "a missing directory must be an error");
  let dir = pm_dir () in
  let r = analyze_ok dir in
  check_string "empty dir is inconclusive" "inconclusive" r.Postmortem.p_verdict;
  check_bool "absences are findings" true (r.Postmortem.p_findings <> []);
  check_bool "timeline renders a placeholder" true
    (let svg = Postmortem.timeline_svg r in
     String.length svg > 0 && String.sub svg 0 4 = "<svg")

let test_postmortem_crash_verdict () =
  let dir = pm_dir () in
  bake_flight dir ~reason:"error:fault"
    [ (Flight.k_phase, Flight.phase_code "improve_delay", 0, 0, 30);
      (Flight.k_deletion, Flight.phase_code "improve_delay",
       Flight.criterion_code "delay", 7, 41);
      (Flight.k_error, 6, 0, 0, 0) ];
  let r = analyze_ok dir in
  check_string "crash names the last commit" "crash-after-commit-42" r.Postmortem.p_verdict;
  check_string "phase recovered from the flight record" "improve_delay"
    r.Postmortem.p_last_phase;
  check_int "deletions from the packed wide argument" 42 r.Postmortem.p_deletions

let test_postmortem_hang_prefers_latest_attempt () =
  let dir = pm_dir () in
  write_file (Filename.concat dir "JOB")
    "bgr-job 1\nid forensic\ntiming_driven true\ndeadline_ms 0\nattempts 2\nkills 1\n\
     last_kill hang\nkill_history hang\n";
  (* an older daemon-side dump AND the killed attempt's dump: the
     attempt dump must win *)
  bake_flight dir ~reason:"stale" [ (Flight.k_phase, 0, 0, 0, 0) ];
  bake_flight dir ~name:"flight-a1.bgrf" ~reason:"sigquit"
    [ (Flight.k_phase, Flight.phase_code "improve_area", 0, 0, 100) ];
  let r = analyze_ok dir in
  check_string "verdict blames the hang" "hang-in-improve_area" r.Postmortem.p_verdict;
  check_string "the attempt dump is correlated" "flight-a1.bgrf" r.Postmortem.p_flight_file;
  (match r.Postmortem.p_job with
  | Some j ->
    check_int "kills parsed" 1 j.Postmortem.j_kills;
    check_string "history parsed" "hang" (String.concat "," j.Postmortem.j_kill_history)
  | None -> Alcotest.fail "JOB manifest not parsed");
  (* the bundle is machine-checkable *)
  (match Qjson.parse (Qjson.to_string (Postmortem.to_json r)) with
  | Ok j ->
    check_bool "json carries the verdict" true
      (Option.bind (Qjson.member "verdict" j) Qjson.to_str = Some "hang-in-improve_area")
  | Error m -> Alcotest.failf "postmortem.json: %s" m);
  let svg = Postmortem.timeline_svg ~window_s:5.0 r in
  check_bool "timeline is an svg" true (String.sub svg 0 4 = "<svg");
  check_bool "timeline names the verdict" true
    (let sub = "hang-in-improve_area" in
     let sl = String.length sub and tl = String.length svg in
     let rec scan i = i + sl <= tl && (String.sub svg i sl = sub || scan (i + 1)) in
     scan 0)

let test_postmortem_deadline_and_torn_journal () =
  (* a k_stop deadline event outranks a torn journal *)
  let dir = pm_dir () in
  bake_flight dir ~reason:"stop:deadline during recover_violations"
    [ (Flight.k_stop, Flight.phase_code "recover_violations", 1, 0, 0) ];
  check_string "deadline stop classified" "deadline-stop-in-recover_violations"
    (analyze_ok dir).Postmortem.p_verdict;
  (* a torn journal alone is its own verdict *)
  let dir = pm_dir () in
  let jpath = Filename.concat dir "journal.bgrj" in
  let w = Journal.create ~path:jpath in
  Journal.append w
    { Journal.r_phase = "improve_delay"; r_area_mode = false; r_net = 1; r_edge = 2;
      r_deletions_before = 8; r_hash_before = 99 };
  Journal.close w;
  let whole = read_file jpath in
  write_file jpath (String.sub whole 0 (String.length whole - 3));
  let r = analyze_ok dir in
  check_string "torn journal classified" "torn-journal" r.Postmortem.p_verdict;
  check_bool "salvage noted in findings" true (r.Postmortem.p_findings <> [])

let test_postmortem_clean_run () =
  let dir = pm_dir () in
  let w = Qlog.create ~path:(Filename.concat dir Qlog.default_filename) in
  ignore (Qlog.append w (sample ~deletions:64 ()));
  ignore (Qlog.append w (sample ~kind:Router.Q_phase ~phase:"metrology" ~deletions:576 ()));
  Qlog.close w;
  let r = analyze_ok dir in
  check_string "metrology tail reads as clean" "clean" r.Postmortem.p_verdict;
  check_int "deletions from the quality tail" 576 r.Postmortem.p_deletions

let () =
  Alcotest.run "analyze"
    [ ( "qlog",
        [ Alcotest.test_case "framing round trip" `Quick test_qlog_roundtrip;
          Alcotest.test_case "torn tail salvage" `Quick test_qlog_torn_tail;
          Alcotest.test_case "mid-file corruption rejected" `Quick test_qlog_corrupt_middle;
          Alcotest.test_case "golden fixture" `Quick test_qlog_golden;
          Alcotest.test_case "oversized arrays clamp to the count" `Quick test_qlog_count_clamp ] );
      ( "quality",
        [ Alcotest.test_case "summarize phases and criteria" `Quick test_summarize;
          Alcotest.test_case "quality.json round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "diff verdicts" `Quick test_diff_verdicts ] );
      ( "postmortem",
        [ Alcotest.test_case "inputs: missing and empty dirs" `Quick test_postmortem_inputs;
          Alcotest.test_case "crash names the last commit" `Quick
            test_postmortem_crash_verdict;
          Alcotest.test_case "hang verdict prefers the attempt dump" `Quick
            test_postmortem_hang_prefers_latest_attempt;
          Alcotest.test_case "deadline stop and torn journal" `Quick
            test_postmortem_deadline_and_torn_journal;
          Alcotest.test_case "clean run stays clean" `Quick test_postmortem_clean_run ] );
      ( "end-to-end",
        [ Alcotest.test_case "recorded route matches signoff" `Slow test_recorded_route ] );
      ( "determinism",
        [ Alcotest.test_case "deletion hash identical with recording on" `Slow
            test_bit_identity ] ) ]
