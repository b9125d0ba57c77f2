(* Forensic correlation of whatever a dead (or merely suspicious) run
   left on disk.  Everything here is read-only and forgiving: the
   whole point of a postmortem is that the process did NOT shut down
   cleanly, so torn tails, half-written files and absent artifacts are
   evidence to report, never reasons to fail. *)

let ( / ) = Filename.concat

type artifact = {
  a_file : string;
  a_kind : string;
  a_present : bool;
  a_bytes : int;
  a_note : string;
}

type report = {
  p_dir : string;
  p_verdict : string;
  p_headline : string;
  p_findings : string list;
  p_last_phase : string;
  p_last_pass : int;
  p_deletions : int;
  p_worst_margin_ps : float;
  p_flight : Flight.dump option;
  p_flight_file : string;
  p_journal : Journal.read_result option;
  p_qlog : Qlog.read_result option;
  p_job : Job_manifest.job option;
  p_error_code : string;
  p_has_result : bool;
  p_artifacts : artifact list;
}

(* --- raw file access --------------------------------------------------- *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

let file_bytes path = match Unix.stat path with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error _ -> 0

let list_dir dir =
  match Sys.readdir dir with
  | entries ->
    let l = Array.to_list entries in
    List.sort compare l
  | exception Sys_error _ -> []

(* --- flight-dump discovery --------------------------------------------- *)

(* A spool job keeps one dump per attempt (flight-aN.bgrf); the latest
   attempt is the one that died last and is what the verdict wants.  A
   plain run directory has at most flight.bgrf. *)
let flight_candidate dir =
  let attempt_no name =
    match Scanf.sscanf_opt name "flight-a%d.bgrf%!" (fun n -> n) with
    | Some n -> Some (n, name)
    | None -> None
  in
  let attempts = List.filter_map attempt_no (list_dir dir) in
  match List.sort (fun (a, _) (b, _) -> compare b a) attempts with
  | (_, name) :: _ -> Some name
  | [] ->
    if Sys.file_exists (dir / Flight.default_filename) then Some Flight.default_filename
    else None

let merged_events r =
  match r.p_flight with
  | None -> []
  | Some d ->
    List.concat_map (fun rg -> rg.Flight.rg_events) d.Flight.f_rings
    |> List.stable_sort (fun a b -> compare a.Flight.e_t_us b.Flight.e_t_us)

(* --- what was the process doing? --------------------------------------- *)

(* Newest event that names a phase; 255 is the recorder's "unknown". *)
let last_phase_of_events events =
  let carries_phase e =
    let k = e.Flight.e_kind in
    k = Flight.k_deletion || k = Flight.k_phase || k = Flight.k_pass
    || k = Flight.k_heartbeat || k = Flight.k_stop
  in
  List.fold_left
    (fun acc e -> if carries_phase e && e.Flight.e_a <> 255 then Some e.Flight.e_a else acc)
    None events
  |> Option.map Flight.phase_name

let last_of pred events = List.fold_left (fun acc e -> if pred e then Some e else acc) None events

(* Every source counts the same monotonic deletion counter, so the
   best estimate is the largest value any of them witnessed. *)
let best_deletions events journal =
  let cand = ref (-1) in
  let consider v = if v > !cand then cand := v in
  List.iter
    (fun e ->
      let k = e.Flight.e_kind in
      if k = Flight.k_heartbeat then consider e.Flight.e_c
      else if k = Flight.k_deletion then consider ((e.Flight.e_d land 0xFFFFFFFF) + 1)
      else if k = Flight.k_phase || k = Flight.k_pass then consider e.Flight.e_d)
    events;
  (match journal with
  | Some (j : Journal.read_result) -> (
    match List.rev j.Journal.records with
    | (rec_, _) :: _ -> consider (rec_.Journal.r_deletions_before + 1)
    | [] -> ())
  | None -> ());
  !cand

(* --- verdict ----------------------------------------------------------- *)

let in_phase phase = match phase with "" -> "unknown" | p -> p

let classify ~job ~events ~flight ~journal ~error_code ~completed ~last_phase ~deletions =
  let phase = in_phase last_phase in
  let last_kill = match job with Some j -> j.Job_manifest.j_last_kill | None -> "" in
  let flight_reason = match flight with Some (d : Flight.dump) -> d.Flight.f_reason | None -> "" in
  let starts p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  let stop = last_of (fun e -> e.Flight.e_kind = Flight.k_stop) events in
  let crashed =
    error_code <> ""
    || starts "error:" flight_reason
    || List.exists (fun e -> e.Flight.e_kind = Flight.k_error) events
  in
  let journal_torn = match journal with Some j -> j.Journal.torn | None -> false in
  if last_kill = "hang" then
    ( Printf.sprintf "hang-in-%s" phase,
      Printf.sprintf
        "the worker went heartbeat-silent during %s and was killed by the watchdog" phase )
  else if last_kill = "oom" || flight_reason = "oom" then
    ( Printf.sprintf "oom-during-%s" phase,
      Printf.sprintf "the worker ran out of memory during %s" phase )
  else if last_kill = "hard-deadline" then
    ( Printf.sprintf "hard-deadline-in-%s" phase,
      Printf.sprintf
        "the worker was alive but still routing past the hard wall deadline, in %s" phase )
  else if last_kill = "canceled" then
    ( Printf.sprintf "canceled-in-%s" phase,
      Printf.sprintf "an operator canceled the job while it was in %s" phase )
  else if starts "signal-" last_kill then
    ( Printf.sprintf "signaled-in-%s" phase,
      Printf.sprintf "the worker died to an external %s during %s" last_kill phase )
  else if crashed then begin
    let code = if error_code <> "" then error_code else
      match last_of (fun e -> e.Flight.e_kind = Flight.k_error) events with
      | Some _ -> "error"
      | None -> "error"
    in
    if deletions >= 0 then
      ( Printf.sprintf "crash-after-commit-%d" deletions,
        Printf.sprintf
          "the process raised a structured error (%s) after committing deletion %d, in %s"
          code deletions phase )
    else
      ( Printf.sprintf "crash-in-%s" phase,
        Printf.sprintf "the process raised a structured error (%s) during %s" code phase )
  end
  else
    match stop with
    | Some e when e.Flight.e_b = 1 ->
      ( Printf.sprintf "deadline-stop-in-%s" (Flight.phase_name e.Flight.e_a),
        Printf.sprintf "the router stopped at its soft deadline during %s — not a failure, \
                        but the run is incomplete"
          (Flight.phase_name e.Flight.e_a) )
    | Some e when e.Flight.e_b = 2 ->
      ( Printf.sprintf "fault-stop-in-%s" (Flight.phase_name e.Flight.e_a),
        Printf.sprintf "an injected fault stopped the router during %s"
          (Flight.phase_name e.Flight.e_a) )
    | _ ->
      if journal_torn then
        ( "torn-journal",
          "the journal ends mid-record — the process died inside an append, before any \
           other artifact recorded why" )
      else (
        match completed with
        | Some witness ->
          ("clean", Printf.sprintf "%s and no artifact shows distress" witness)
        | None ->
          if flight = None && journal = None then
            ("inconclusive", "no flight record and no journal — nothing to correlate")
          else
            ( "inconclusive",
              "no artifact records a failure, but nothing witnesses completion either" ))

(* --- analyze ----------------------------------------------------------- *)

let artifact ~dir ~kind ?(note = "") file =
  let p = dir / file in
  let present = Sys.file_exists p in
  { a_file = file; a_kind = kind;
    a_present = present;
    a_bytes = (if present then file_bytes p else 0);
    a_note = note }

let kind_of_name name =
  if Filename.check_suffix name ".bgrf" then "flight"
  else if name = "journal.bgrj" then "journal"
  else if name = Qlog.default_filename then "qlog"
  else if name = "snapshot.bgrs" then "snapshot"
  else if name = "design.bgr" then "design"
  else if name = "MANIFEST" then "manifest"
  else if name = "JOB" then "job"
  else if name = "RESULT" then "result"
  else if name = "ERROR" then "error"
  else if Scanf.sscanf_opt name "obs-a%d.json%!" (fun n -> n) <> None then "obs"
  else if Scanf.sscanf_opt name "trace-a%d.%s" (fun n _ -> n) <> None then "trace"
  else if Scanf.sscanf_opt name "metrics-a%d.%s" (fun n _ -> n) <> None then "metrics"
  else "other"

let analyze ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error
      (Bgr_error.make ~file:dir ~phase:"analyze" Bgr_error.Validate
         "postmortem wants a run or spool-job directory")
  else begin
    let findings = ref [] in
    let note f = Printf.ksprintf (fun m -> findings := m :: !findings) f in
    (* flight *)
    let flight_file, flight =
      match flight_candidate dir with
      | None ->
        note "no flight record (*.bgrf) found — was the process killed with SIGKILL before \
              it could dump, or did it predate the recorder?";
        ("", None)
      | Some name -> (
        match Flight.read ~path:(dir / name) with
        | Ok d ->
          List.iter (fun w -> note "flight %s: %s" name w) d.Flight.f_warnings;
          if d.Flight.f_torn then
            note "flight %s ends mid-frame: the process died while dumping" name;
          (name, Some d)
        | Error e ->
          note "flight %s is unreadable: %s" name (Bgr_error.to_string e);
          (name, None))
    in
    (* journal *)
    let journal =
      let p = dir / "journal.bgrj" in
      if not (Sys.file_exists p) then None
      else
        match Journal.read ~path:p with
        | Ok j ->
          List.iter (fun w -> note "journal: %s" w) j.Journal.warnings;
          Some j
        | Error e ->
          note "journal is unreadable: %s" (Bgr_error.to_string e);
          None
    in
    (* quality log *)
    let qlog =
      let p = dir / Qlog.default_filename in
      if not (Sys.file_exists p) then None
      else
        match Qlog.read ~path:p with
        | Ok q ->
          List.iter (fun w -> note "quality log: %s" w) q.Qlog.warnings;
          Some q
        | Error e ->
          note "quality log is unreadable: %s" (Bgr_error.to_string e);
          None
    in
    (* spool JOB manifest *)
    let jb =
      match read_file (dir / "JOB") with
      | None -> None
      | Some s -> (
        match Job_manifest.parse_job ~file:(dir / "JOB") s with
        | Ok j ->
          if j.Job_manifest.j_kills > 0 then
            note "the worker was killed %d time%s (%s)" j.j_kills
              (if j.j_kills = 1 then "" else "s")
              (String.concat ", " j.j_kill_history);
          Some j
        | Error e ->
          note "JOB manifest did not parse: %s" (Bgr_error.to_string e);
          None)
    in
    (* RESULT / ERROR verdicts *)
    let has_result = Sys.file_exists (dir / "RESULT") in
    let error_code =
      match read_file (dir / "ERROR") with
      | None -> ""
      | Some s -> (
        match Qjson.parse s with
        | Ok j ->
          let get k = Option.bind (Qjson.member k j) Qjson.to_str in
          let code = Option.value (get "code") ~default:"error" in
          (match get "message" with
          | Some m -> note "ERROR verdict: %s: %s" code m
          | None -> note "ERROR verdict: %s" code);
          code
        | Error msg ->
          note "ERROR verdict did not parse (%s)" msg;
          "error")
    in
    (* what the artifacts agree the process was doing *)
    let events =
      match flight with
      | None -> []
      | Some d ->
        List.concat_map (fun rg -> rg.Flight.rg_events) d.Flight.f_rings
        |> List.stable_sort (fun a b -> compare a.Flight.e_t_us b.Flight.e_t_us)
    in
    let qlog_last = Option.bind qlog (fun q -> match List.rev q.Qlog.records with
      | r :: _ -> Some r | [] -> None) in
    let last_phase =
      match last_phase_of_events events with
      | Some p -> p
      | None -> (
        match qlog_last with
        | Some r -> r.Qlog.q_sample.Router.qs_phase
        | None -> "")
    in
    let last_pass =
      match last_of (fun e ->
          e.Flight.e_kind = Flight.k_pass || e.Flight.e_kind = Flight.k_heartbeat) events with
      | Some e -> e.Flight.e_b
      | None -> (
        match qlog_last with Some r -> r.Qlog.q_sample.Router.qs_pass | None -> 0)
    in
    let deletions =
      let d = best_deletions events journal in
      match (d, qlog_last) with
      | -1, Some r -> r.Qlog.q_sample.Router.qs_deletions
      | d, Some r -> max d r.Qlog.q_sample.Router.qs_deletions
      | d, None -> d
    in
    let worst_margin =
      match last_of (fun e -> e.Flight.e_kind = Flight.k_heartbeat) events with
      | Some e -> Flight.margin_decode e.Flight.e_d
      | None -> (
        match qlog_last with
        | Some r -> r.Qlog.q_sample.Router.qs_worst_margin_ps
        | None -> nan)
    in
    (* cross-checks *)
    (match (flight, journal) with
    | Some _, Some j when events <> [] ->
      let jf = best_deletions events None and jj = best_deletions [] (Some j) in
      if jf >= 0 && jj >= 0 && jf < jj then
        note "the journal holds deletion %d but the flight record only saw %d — the \
              recorder's view is older than the last durable commit" (jj - 1) (jf - 1)
    | _ -> ());
    (match flight with
    | Some d ->
      let dropped =
        List.fold_left
          (fun acc rg -> acc + (rg.Flight.rg_total - List.length rg.Flight.rg_events))
          0 d.Flight.f_rings
      in
      if dropped > 0 then
        note "%d older flight events were overwritten by the ring (retained: the newest %d)"
          dropped
          (List.length events)
    | None -> ());
    (* artifact survey: everything present, plus the load-bearing
       absences *)
    let survey =
      let names = list_dir dir in
      let present =
        List.filter_map
          (fun name ->
            let p = dir / name in
            if Sys.is_directory p then None
            else Some { a_file = name; a_kind = kind_of_name name; a_present = true;
                        a_bytes = file_bytes p; a_note = "" })
          names
      in
      let absent kind file =
        if List.exists (fun a -> a.a_kind = kind) present then []
        else [ artifact ~dir ~kind ~note:"absent" file ]
      in
      present
      @ absent "flight" Flight.default_filename
      @ absent "journal" "journal.bgrj"
      @ absent "qlog" Qlog.default_filename
    in
    (* Completion witnesses: the spool's RESULT verdict, or — for a
       plain run directory — the quality log's final "metrology"
       sample, which the flow only emits after the audit passed. *)
    let completed =
      if has_result then Some "a RESULT verdict exists"
      else
        match qlog_last with
        | Some r when r.Qlog.q_sample.Router.qs_phase = "metrology" ->
          Some "the quality log ends with the final metrology sample"
        | _ -> None
    in
    let verdict, headline =
      classify ~job:jb ~events ~flight ~journal ~error_code ~completed ~last_phase ~deletions
    in
    (* A verdict that names a failure with a completion witness on
       disk means a retry won in the end — say so. *)
    let headline =
      let failure_prefixes =
        [ "hang-"; "oom-"; "hard-deadline-"; "canceled-"; "signaled-"; "crash-"; "fault-";
          "torn-" ]
      in
      let starts p =
        String.length verdict >= String.length p && String.sub verdict 0 (String.length p) = p
      in
      if completed <> None && List.exists starts failure_prefixes then
        headline ^ " (a later attempt recovered)"
      else headline
    in
    Ok
      { p_dir = dir;
        p_verdict = verdict;
        p_headline = headline;
        p_findings = List.rev !findings;
        p_last_phase = last_phase;
        p_last_pass = last_pass;
        p_deletions = deletions;
        p_worst_margin_ps = worst_margin;
        p_flight = flight;
        p_flight_file = flight_file;
        p_journal = journal;
        p_qlog = qlog;
        p_job = jb;
        p_error_code = error_code;
        p_has_result = has_result;
        p_artifacts = survey }
  end

(* --- postmortem.json --------------------------------------------------- *)

let event_json e =
  Qjson.Obj
    [ ("t_us", Qjson.int e.Flight.e_t_us);
      ("kind", Qjson.Str (Flight.kind_name e.Flight.e_kind));
      ("a", Qjson.int e.Flight.e_a); ("b", Qjson.int e.Flight.e_b);
      ("c", Qjson.int e.Flight.e_c); ("d", Qjson.int e.Flight.e_d) ]

let to_json r =
  let events = merged_events r in
  let tail =
    let n = List.length events in
    if n <= 200 then events
    else List.filteri (fun i _ -> i >= n - 200) events
  in
  Qjson.Obj
    [ ("schema", Qjson.Str "bgr-postmortem-1");
      ("dir", Qjson.Str r.p_dir);
      ("verdict", Qjson.Str r.p_verdict);
      ("headline", Qjson.Str r.p_headline);
      ("findings", Qjson.Arr (List.map (fun f -> Qjson.Str f) r.p_findings));
      ("last_phase", Qjson.Str r.p_last_phase);
      ("last_pass", Qjson.int r.p_last_pass);
      ("deletions", Qjson.int r.p_deletions);
      ("worst_margin_ps", Qjson.num r.p_worst_margin_ps);
      ( "flight",
        match r.p_flight with
        | None -> Qjson.Null
        | Some d ->
          Qjson.Obj
            [ ("file", Qjson.Str r.p_flight_file);
              ("reason", Qjson.Str d.Flight.f_reason);
              ("pid", Qjson.int d.Flight.f_pid);
              ("epoch_s", Qjson.num d.Flight.f_epoch_s);
              ("domains", Qjson.int (List.length d.Flight.f_rings));
              ("events", Qjson.int (List.length events));
              ( "recorded",
                Qjson.int
                  (List.fold_left (fun acc rg -> acc + rg.Flight.rg_total) 0 d.Flight.f_rings)
              );
              ("torn", Qjson.Bool d.Flight.f_torn) ] );
      ( "journal",
        match r.p_journal with
        | None -> Qjson.Null
        | Some j ->
          Qjson.Obj
            [ ("records", Qjson.int (List.length j.Journal.records));
              ("valid_bytes", Qjson.int j.Journal.valid_bytes);
              ("torn", Qjson.Bool j.Journal.torn) ] );
      ( "qlog",
        match r.p_qlog with
        | None -> Qjson.Null
        | Some q ->
          Qjson.Obj
            [ ("records", Qjson.int (List.length q.Qlog.records));
              ("torn", Qjson.Bool q.Qlog.torn) ] );
      ( "job",
        match r.p_job with
        | None -> Qjson.Null
        | Some j ->
          Qjson.Obj
            [ ("id", Qjson.Str j.Job_manifest.j_id);
              ("timing_driven", Qjson.Bool j.j_timing_driven);
              ("deadline_ms", Qjson.int (Option.value j.j_deadline_ms ~default:0));
              ("attempts", Qjson.int j.j_attempts);
              ("kills", Qjson.int j.j_kills);
              ("last_kill", Qjson.Str j.j_last_kill);
              ("kill_history", Qjson.Arr (List.map (fun k -> Qjson.Str k) j.j_kill_history))
            ] );
      ("error_code", Qjson.Str r.p_error_code);
      ("has_result", Qjson.Bool r.p_has_result);
      ( "artifacts",
        Qjson.Arr
          (List.map
             (fun a ->
               Qjson.Obj
                 [ ("file", Qjson.Str a.a_file); ("kind", Qjson.Str a.a_kind);
                   ("present", Qjson.Bool a.a_present); ("bytes", Qjson.int a.a_bytes);
                   ("note", Qjson.Str a.a_note) ])
             r.p_artifacts) );
      ("events_tail", Qjson.Arr (List.map event_json tail)) ]

(* --- the last-N-seconds timeline --------------------------------------- *)

(* Minimal local SVG helpers (Qsvg keeps its primitives private, and
   this chart shares no geometry with the quality explorers). *)
let esc s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let fpx v = Printf.sprintf "%.2f" v

let lanes =
  [ ("phase/pass", [ Flight.k_phase; Flight.k_pass ], "#4c78a8");
    ("deletions", [ Flight.k_deletion ], "#54a24b");
    ("persist", [ Flight.k_journal_sync; Flight.k_snapshot ], "#9d755d");
    ("pool", [ Flight.k_pool_round ], "#b279a2");
    ("serve", [ Flight.k_serve_op; Flight.k_retry ], "#72b7b2");
    ("heartbeat", [ Flight.k_heartbeat ], "#eeca3b");
    ("worker", [ Flight.k_worker_spawn; Flight.k_worker_kill ], "#f58518");
    ("failure", [ Flight.k_stop; Flight.k_error; Flight.k_dump ], "#e45756") ]

let timeline_svg ?(window_s = 30.0) r =
  let w = 880 and left = 130.0 and top = 58.0 and row = 26.0 in
  let h = int_of_float (top +. (row *. float_of_int (List.length lanes)) +. 46.0) in
  let b = Buffer.create 4096 in
  let put fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  put
    "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" viewBox=\"0 0 %d \
     %d\" font-family=\"sans-serif\">\n\
     <rect x=\"0\" y=\"0\" width=\"%d\" height=\"%d\" fill=\"#ffffff\"/>\n"
    w h w h w h;
  put "<text x=\"16\" y=\"24\" font-size=\"15\" fill=\"#222222\">flight timeline — %s</text>\n"
    (esc r.p_verdict);
  let events = merged_events r in
  (match (r.p_flight, events) with
  | None, _ | _, [] ->
    put
      "<text x=\"16\" y=\"46\" font-size=\"12\" fill=\"#888888\">no flight record — \
       nothing to draw</text>\n"
  | Some d, _ ->
    let t_end = List.fold_left (fun acc e -> max acc e.Flight.e_t_us) 0 events in
    let span_us = int_of_float (window_s *. 1e6) in
    let t_start = max 0 (t_end - span_us) in
    let visible = List.filter (fun e -> e.Flight.e_t_us >= t_start) events in
    put
      "<text x=\"16\" y=\"46\" font-size=\"12\" fill=\"#555555\">%s · dump reason: %s · pid \
       %d · last %.1fs, %d of %d events</text>\n"
      (esc (Filename.concat r.p_dir r.p_flight_file))
      (esc d.Flight.f_reason) d.Flight.f_pid
      (float_of_int (t_end - t_start) /. 1e6)
      (List.length visible) (List.length events);
    let x_of t =
      left
      +. (float_of_int (t - t_start) /. float_of_int (max 1 (t_end - t_start))
          *. (float_of_int w -. left -. 24.0))
    in
    (* second-granularity axis ticks *)
    let div = Stdlib.( / ) in
    let sec0 = div (t_start + 999_999) 1_000_000 and sec1 = div t_end 1_000_000 in
    let step = max 1 (div (sec1 - sec0) 8) in
    let axis_y = top +. (row *. float_of_int (List.length lanes)) +. 6.0 in
    let s = ref sec0 in
    while !s <= sec1 do
      let x = x_of (!s * 1_000_000) in
      put
        "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"#dddddd\" \
         stroke-width=\"1.00\"/>\n"
        (fpx x) (fpx (top -. 6.0)) (fpx x) (fpx axis_y);
      put
        "<text x=\"%s\" y=\"%s\" font-size=\"10\" fill=\"#888888\" \
         text-anchor=\"middle\">%ds</text>\n"
        (fpx x)
        (fpx (axis_y +. 14.0))
        !s;
      s := !s + step
    done;
    List.iteri
      (fun i (label, kinds, color) ->
        let y = top +. (row *. float_of_int i) in
        let mine = List.filter (fun e -> List.mem e.Flight.e_kind kinds) visible in
        put
          "<text x=\"%s\" y=\"%s\" font-size=\"11\" fill=\"#333333\" \
           text-anchor=\"end\">%s (%d)</text>\n"
          (fpx (left -. 10.0))
          (fpx (y +. 14.0))
          (esc label) (List.length mine);
        put
          "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"#eeeeee\" \
           stroke-width=\"1.00\"/>\n"
          (fpx left)
          (fpx (y +. 10.0))
          (fpx (float_of_int w -. 24.0))
          (fpx (y +. 10.0));
        List.iter
          (fun e ->
            let x = x_of e.Flight.e_t_us in
            let title =
              Printf.sprintf "%s a=%d b=%d c=%d d=%d @%.3fs"
                (Flight.kind_name e.Flight.e_kind)
                e.Flight.e_a e.Flight.e_b e.Flight.e_c e.Flight.e_d
                (float_of_int e.Flight.e_t_us /. 1e6)
            in
            put
              "<rect x=\"%s\" y=\"%s\" width=\"2.00\" height=\"16.00\" \
               fill=\"%s\"><title>%s</title></rect>\n"
              (fpx (x -. 1.0))
              (fpx (y +. 2.0))
              color (esc title);
            (* phase entries get named so the lane reads as a story *)
            if e.Flight.e_kind = Flight.k_phase && e.Flight.e_b = 0 then
              put
                "<text x=\"%s\" y=\"%s\" font-size=\"9\" fill=\"#4c78a8\">%s</text>\n"
                (fpx (x +. 3.0))
                (fpx (y +. 8.0))
                (esc (Flight.phase_name e.Flight.e_a)))
          mine)
      lanes);
  put "</svg>\n";
  Buffer.contents b
