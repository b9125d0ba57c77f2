(* Offline explorer for solution-quality event logs (.bgrq).

     bgr_analyze report RUN [--out DIR]   convergence/density/slack SVGs + quality.json
     bgr_analyze diff A B                 thresholded A/B regression gate
     bgr_analyze postmortem DIR           crash forensics: verdict + postmortem.json + SVG *)

open Cmdliner

let fail_with (e : Bgr_error.t) =
  prerr_endline (Bgr_error.to_string e);
  exit (Bgr_error.exit_code e.Bgr_error.code)

(* A PATH argument names either a .bgrq file or a run directory holding
   one under the conventional name. *)
let resolve_log path =
  if Sys.file_exists path && Sys.is_directory path then Filename.concat path Qlog.default_filename
  else path

let read_log path =
  match Qlog.read ~path:(resolve_log path) with
  | Error e -> fail_with e
  | Ok r ->
    List.iter (fun w -> Printf.eprintf "warning: %s\n%!" w) r.Qlog.warnings;
    r.Qlog.records

let write_file path s =
  match
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  with
  | () -> Printf.printf "wrote %s\n" path
  | exception Sys_error msg ->
    fail_with (Bgr_error.make ~file:path ~phase:"analyze" Bgr_error.Io_error "%s" msg)

let summary_table (s : Quality.summary) =
  let t = Table.create ~title:"Quality summary" ~columns:[ "metric"; "value" ] in
  let add k v = Table.add_row t [ k; v ] in
  add "samples" (Table.fint s.Quality.sm_samples);
  add "wall clock (s)" (Table.f2 s.Quality.sm_wall_s);
  add "final worst margin (ps)" (Table.f1 s.Quality.sm_final_worst_margin_ps);
  add "final worst constraint"
    (if s.Quality.sm_final_worst_constraint < 0 then "-"
     else Printf.sprintf "P%d" s.Quality.sm_final_worst_constraint);
  add "final total negative margin (ps)" (Table.f1 s.Quality.sm_final_total_negative_ps);
  add "final violations" (Table.fint s.Quality.sm_final_violations);
  add "final peak density (tracks)" (Table.fint s.Quality.sm_final_peak_density);
  add "deletions" (Table.fint s.Quality.sm_final_deletions);
  add "endpoint slack min (ps)" (Table.f1 s.Quality.sm_final_ep_slack_min_ps);
  add "endpoint slack max (ps)" (Table.f1 s.Quality.sm_final_ep_slack_max_ps);
  t

(* Rows = phases, columns = the union of winning-criterion names: which
   selection rule drove the deletions of each phase. *)
let criteria_table (s : Quality.summary) =
  let names =
    List.sort_uniq compare
      (List.concat_map
         (fun (p : Quality.phase_stat) -> List.map fst p.Quality.ph_criteria)
         s.Quality.sm_phases)
  in
  let t =
    Table.create ~title:"Deletions by winning criterion"
      ~columns:("phase" :: (names @ [ "total" ]))
  in
  List.iter
    (fun (p : Quality.phase_stat) ->
      let count n = Option.value (List.assoc_opt n p.Quality.ph_criteria) ~default:0 in
      let total = List.fold_left (fun acc (_, c) -> acc + c) 0 p.Quality.ph_criteria in
      Table.add_row t
        (p.Quality.ph_phase
        :: (List.map (fun n -> Table.fint (count n)) names @ [ Table.fint total ])))
    s.Quality.sm_phases;
  t

let phase_table (s : Quality.summary) =
  let t =
    Table.create ~title:"Phase progression"
      ~columns:
        [ "phase"; "passes"; "wall (s)"; "deletions"; "worst margin (ps)"; "violations";
          "peak density" ]
  in
  List.iter
    (fun (p : Quality.phase_stat) ->
      Table.add_row t
        [ p.Quality.ph_phase;
          Table.fint p.Quality.ph_passes;
          Table.f2 p.Quality.ph_wall_s;
          Table.fint p.Quality.ph_deletions;
          Table.f1 p.Quality.ph_worst_margin_ps;
          Table.fint p.Quality.ph_violations;
          Table.fint p.Quality.ph_peak_density ])
    s.Quality.sm_phases;
  t

let report_cmd =
  let path_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"RUN" ~doc:"A .bgrq quality log, or a run directory holding quality.bgrq.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Output directory for quality.json and the SVGs (default: next to the log).")
  in
  let run path out =
    let records = read_log path in
    if records = [] then Printf.eprintf "warning: the quality log holds no samples\n%!";
    let summary = Quality.summarize records in
    let dir = match out with Some d -> d | None -> Filename.dirname (resolve_log path) in
    (try if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
     with Unix.Unix_error (e, _, _) ->
       fail_with
         (Bgr_error.make ~file:dir ~phase:"analyze" Bgr_error.Io_error "%s" (Unix.error_message e)));
    Table.print (summary_table summary);
    Table.print (phase_table summary);
    Table.print (criteria_table summary);
    let ( / ) = Filename.concat in
    write_file (dir / "quality.json") (Quality.to_json summary ^ "\n");
    write_file (dir / "convergence.svg") (Qsvg.convergence records);
    write_file (dir / "density_heatmap.svg") (Qsvg.density_heatmap records);
    write_file (dir / "slack_waterfall.svg") (Qsvg.slack_waterfall summary)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Summarize a quality log: convergence and channel-density SVGs, a per-constraint \
          slack waterfall, criterion-attribution tables and a machine-readable quality.json.")
    Term.(const run $ path_arg $ out_arg)

(* A diff operand accepts a run directory (preferring its quality.json,
   falling back to the raw log), a .json summary or a .bgrq log. *)
let load_summary path =
  let json_of p =
    match
      let ic = open_in_bin p in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | s -> (
      match Quality.of_json_string ~file:p s with Ok s -> s | Error e -> fail_with e)
    | exception Sys_error msg ->
      fail_with (Bgr_error.make ~file:p ~phase:"analyze" Bgr_error.Io_error "%s" msg)
  in
  if Sys.file_exists path && Sys.is_directory path then begin
    let j = Filename.concat path "quality.json" in
    if Sys.file_exists j then json_of j
    else Quality.summarize (read_log path)
  end
  else if Filename.check_suffix path ".json" then json_of path
  else Quality.summarize (read_log path)

let diff_cmd =
  let a_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BASELINE" ~doc:"Baseline run: a directory, quality.json or .bgrq log.")
  in
  let b_arg =
    Arg.(
      required & pos 1 (some string) None & info [] ~docv:"CANDIDATE" ~doc:"Candidate run.")
  in
  let tol_arg =
    Arg.(
      value
      & opt float 1e-3
      & info [ "margin-tol-ps" ] ~docv:"PS"
          ~doc:"Margin drop below the baseline that counts as a regression.")
  in
  let wall_factor_arg =
    Arg.(
      value
      & opt float 1.5
      & info [ "wall-factor" ] ~docv:"X" ~doc:"Wall-clock slowdown factor that regresses.")
  in
  let wall_floor_arg =
    Arg.(
      value
      & opt float 1.0
      & info [ "wall-floor-s" ] ~docv:"S"
          ~doc:"Absolute wall-clock allowance added on top of the factor (noise floor).")
  in
  let run a b margin_tol_ps wall_factor wall_floor_s =
    let sa = load_summary a and sb = load_summary b in
    let checks = Quality.diff ~margin_tol_ps ~wall_factor ~wall_floor_s sa sb in
    let t =
      Table.create ~title:(Printf.sprintf "Run diff: %s vs %s" a b)
        ~columns:[ "metric"; "baseline"; "candidate"; "verdict"; "note" ]
    in
    List.iter
      (fun (c : Quality.check) ->
        Table.add_row t
          [ c.Quality.ck_metric; c.Quality.ck_a; c.Quality.ck_b;
            Quality.verdict_string c.Quality.ck_verdict; c.Quality.ck_note ])
      checks;
    Table.print t;
    if Quality.regressed checks then begin
      print_endline "REGRESSED";
      exit 1
    end
    else print_endline "PASS"
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare a candidate run's quality summary against a baseline with regression \
          thresholds; prints PASS or REGRESSED and exits non-zero on a regression — the CI \
          gate.")
    Term.(const run $ a_arg $ b_arg $ tol_arg $ wall_factor_arg $ wall_floor_arg)

(* --- crash forensics --------------------------------------------------- *)

let verdict_table (r : Postmortem.report) =
  let t = Table.create ~title:"Postmortem" ~columns:[ "fact"; "value" ] in
  let add k v = Table.add_row t [ k; v ] in
  add "directory" r.Postmortem.p_dir;
  add "verdict" r.Postmortem.p_verdict;
  add "last phase"
    (if r.Postmortem.p_last_phase = "" then "-" else r.Postmortem.p_last_phase);
  add "last pass" (Table.fint r.Postmortem.p_last_pass);
  add "deletions"
    (if r.Postmortem.p_deletions < 0 then "-" else Table.fint r.Postmortem.p_deletions);
  add "worst margin (ps)" (Table.f1 r.Postmortem.p_worst_margin_ps);
  (match r.Postmortem.p_flight with
  | None -> add "flight record" "-"
  | Some d ->
    add "flight record"
      (Printf.sprintf "%s (reason: %s, pid %d)" r.Postmortem.p_flight_file
         d.Flight.f_reason d.Flight.f_pid));
  (match r.Postmortem.p_job with
  | None -> ()
  | Some j ->
    add "job" j.Job_manifest.j_id;
    add "attempts" (Table.fint j.Job_manifest.j_attempts);
    add "kills"
      (if j.Job_manifest.j_kills = 0 then "0"
       else
         Printf.sprintf "%d (%s)" j.Job_manifest.j_kills
           (String.concat ", " j.Job_manifest.j_kill_history)));
  if r.Postmortem.p_error_code <> "" then add "error code" r.Postmortem.p_error_code;
  add "RESULT present" (if r.Postmortem.p_has_result then "yes" else "no");
  t

let artifact_table (r : Postmortem.report) =
  let t =
    Table.create ~title:"Artifact survey" ~columns:[ "file"; "kind"; "bytes"; "note" ]
  in
  List.iter
    (fun (a : Postmortem.artifact) ->
      Table.add_row t
        [ a.Postmortem.a_file; a.Postmortem.a_kind;
          (if a.Postmortem.a_present then Table.fint a.Postmortem.a_bytes else "-");
          (if a.Postmortem.a_note <> "" then a.Postmortem.a_note
           else if a.Postmortem.a_present then ""
           else "absent") ])
    r.Postmortem.p_artifacts;
  t

let postmortem_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR"
          ~doc:
            "A run directory ($(b,bgr_run --persist)) or a spool job directory \
             (jobs/NAME, dead/NAME or quarantine/NAME).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Where to write postmortem.json and timeline.svg (default: $(i,DIR) itself).")
  in
  let window_arg =
    Arg.(
      value
      & opt float 30.0
      & info [ "window-s" ] ~docv:"S" ~doc:"Timeline SVG span: the last $(i,S) seconds.")
  in
  let run dir out window_s =
    match Postmortem.analyze ~dir with
    | Error e -> fail_with e
    | Ok r ->
      let out = match out with Some d -> d | None -> dir in
      (try if not (Sys.file_exists out) then Unix.mkdir out 0o755
       with Unix.Unix_error (e, _, _) ->
         fail_with
           (Bgr_error.make ~file:out ~phase:"analyze" Bgr_error.Io_error "%s"
              (Unix.error_message e)));
      Table.print (verdict_table r);
      Table.print (artifact_table r);
      if r.Postmortem.p_findings <> [] then begin
        print_endline "Findings:";
        List.iter (fun f -> Printf.printf "  - %s\n" f) r.Postmortem.p_findings
      end;
      let ( / ) = Filename.concat in
      write_file (out / "postmortem.json")
        (Qjson.to_string (Postmortem.to_json r) ^ "\n");
      write_file (out / "timeline.svg") (Postmortem.timeline_svg ~window_s r);
      (* the one-line answer, last, where a scrollback lands *)
      Printf.printf "verdict: %s — %s\n" r.Postmortem.p_verdict r.Postmortem.p_headline
  in
  Cmd.v
    (Cmd.info "postmortem"
       ~doc:
         "Assemble a crash-forensics bundle from a run or spool-job directory: correlate \
          the flight record with the journal tail, quality-log tail, kill history and \
          RESULT/ERROR verdicts into one classifying verdict line, a machine-readable \
          postmortem.json and a last-seconds timeline SVG.")
    Term.(const run $ dir_arg $ out_arg $ window_arg)

let main =
  let doc = "Offline solution-quality analytics for bgr_run --quality-log event logs" in
  Cmd.group (Cmd.info "bgr_analyze" ~doc) [ report_cmd; diff_cmd; postmortem_cmd ]

let () = exit (Cmd.eval main)
