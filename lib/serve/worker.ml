(* Process isolation for routing attempts.

   The daemon side ([supervise]) forks-and-execs a fresh [bgr_serve
   worker] subprocess per attempt and watches its report pipe; the
   worker side ([main]) re-opens the job's spool directory, runs the
   one attempt, and reports heartbeats, progress and the final verdict
   over stdout in the house CRC framing.  See docs/FORMATS.md for the
   frame spec. *)

let magic = "BGRW1\n"

type event =
  | Heartbeat of { phase : string; pass : int; deletions : int; worst_margin_ps : float }
  | Done of { json : string }
  | Fail of { code : string; message : string }
  | Obs_summary of { json : string }
  | Dump of { path : string }

(* --- framing (the BGRS1 discipline, worker-pipe opcodes) --------------- *)

let op_heartbeat = 0xC1
let op_done = 0xC2
let op_fail = 0xC3
let op_obs_summary = 0xC4
let op_dump = 0xC5

let f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)

let encode_event ev =
  let b = Buffer.create 64 in
  (match ev with
  | Heartbeat { phase; pass; deletions; worst_margin_ps } ->
    Buffer.add_char b (Char.chr op_heartbeat);
    Frame.add_lpstr b phase;
    Frame.add_u32 b pass;
    Frame.add_u32 b deletions;
    f64 b worst_margin_ps
  | Done { json } ->
    Buffer.add_char b (Char.chr op_done);
    Frame.add_lpstr b json
  | Fail { code; message } ->
    Buffer.add_char b (Char.chr op_fail);
    Frame.add_lpstr b code;
    Frame.add_lpstr b message
  | Obs_summary { json } ->
    Buffer.add_char b (Char.chr op_obs_summary);
    Frame.add_lpstr b json
  | Dump { path } ->
    Buffer.add_char b (Char.chr op_dump);
    Frame.add_lpstr b path);
  Frame.encode (Buffer.contents b)

let get_f64 s pos =
  if pos + 8 > String.length s then raise Frame.Short;
  Int64.float_of_bits (String.get_int64_be s pos)

let parse_error fmt =
  Printf.ksprintf
    (fun m -> Error (Bgr_error.make ~phase:"serve" Bgr_error.Parse "%s" m))
    fmt

let decode_event s =
  if s = "" then parse_error "empty worker event payload"
  else begin
    let op = Char.code s.[0] in
    let finish pos v =
      if pos <> String.length s then
        parse_error "worker event carries %d trailing bytes" (String.length s - pos)
      else Ok v
    in
    match
      if op = op_heartbeat then begin
        let phase, pos = Frame.get_lpstr s 1 in
        let pass = Frame.get_u32 s pos in
        let deletions = Frame.get_u32 s (pos + 4) in
        let worst_margin_ps = get_f64 s (pos + 8) in
        finish (pos + 16) (Heartbeat { phase; pass; deletions; worst_margin_ps })
      end
      else if op = op_done then begin
        let json, pos = Frame.get_lpstr s 1 in
        finish pos (Done { json })
      end
      else if op = op_fail then begin
        let code, pos = Frame.get_lpstr s 1 in
        let message, pos = Frame.get_lpstr s pos in
        finish pos (Fail { code; message })
      end
      else if op = op_obs_summary then begin
        let json, pos = Frame.get_lpstr s 1 in
        finish pos (Obs_summary { json })
      end
      else if op = op_dump then begin
        let path, pos = Frame.get_lpstr s 1 in
        finish pos (Dump { path })
      end
      else parse_error "unknown worker event opcode 0x%02x" op
    with
    | r -> r
    | exception Frame.Short -> parse_error "worker event is truncated (opcode 0x%02x)" op
  end

(* --- job result json (shared by daemon and worker) --------------------- *)

let result_json id (m : Flow.measurement) ~attempts =
  Qjson.to_string
    (Qjson.Obj
       [ ("job", Qjson.Str id);
         ("ok", Qjson.Bool true);
         (* as a string: the hash is a full 63-bit int, which a JSON
            double would round *)
         ("deletion_hash", Qjson.Str (string_of_int m.Flow.m_deletion_hash));
         ("delay_ps", Qjson.num m.Flow.m_delay_ps);
         ("area_mm2", Qjson.num m.Flow.m_area_mm2);
         ("length_mm", Qjson.num m.Flow.m_length_mm);
         ("violations", Qjson.int m.Flow.m_violations);
         ("stopped_because", Qjson.Str m.Flow.m_stopped_because);
         ("domains", Qjson.int m.Flow.m_domains);
         ("attempts", Qjson.int attempts) ])

let error_json id (e : Bgr_error.t) ~attempts =
  Qjson.to_string
    (Qjson.Obj
       [ ("job", Qjson.Str id);
         ("ok", Qjson.Bool false);
         ("code", Qjson.Str (Bgr_error.code_name e.Bgr_error.code));
         ("error", Qjson.Str (Bgr_error.to_string e));
         ("attempts", Qjson.int attempts) ])

(* --- one routing attempt (shared by both isolation modes) -------------- *)

(* A quality sink that degrades to a log line: telemetry must never
   fail the job (same discipline as the CLI's). *)
let quality_sink ~log path =
  match Qlog.create ~path with
  | exception Bgr_error.Error e ->
    log (Printf.sprintf "warning: quality: %s" e.Bgr_error.message);
    (None, fun () -> ())
  | w ->
    let dead = ref false in
    let emit s =
      if not !dead then
        try ignore (Qlog.append w s)
        with _ ->
          dead := true;
          Qlog.close w;
          log "warning: quality: recording stopped"
    in
    (Some emit, fun () -> if not !dead then Qlog.close w)

let budget_of ?default_deadline_ms (job : Spool.job) =
  match
    match job.Spool.j_deadline_ms with Some ms -> Some ms | None -> default_deadline_ms
  with
  | None -> Budget.unlimited
  | Some ms -> Budget.make ~wall_ms:(float_of_int ms) ()

(* [Persist.route] the first time, [Persist.resume] once a journal
   exists — so a retry after a mid-route fault (or a killed worker)
   continues the interrupted run instead of starting over. *)
let attempt ~domains ~budget ?on_quality ~dir (job : Spool.job) =
  try
    if Sys.file_exists (Filename.concat dir Persist.journal_file) then
      Result.map
        (fun rr -> rr.Persist.rr_outcome)
        (Persist.resume ~domains ~budget ?on_quality ~dir ())
    else begin
      let design_path = Filename.concat dir Persist.design_file in
      let design_text = Lineio.read_all design_path in
      match
        Result.bind (Design_io.of_string_result ~file:design_path design_text)
          Design_check.validate
      with
      | Error e -> Error e
      | Ok bundle ->
        let options = { Router.default_options with Router.domains } in
        Ok
          (Persist.route ~options ~timing_driven:job.Spool.j_timing_driven ~budget
             ?on_quality ~dir ~design_text (Design_io.to_flow_input bundle))
    end
  with
  | Bgr_error.Error e -> Error e
  | Sys_error msg -> Error (Bgr_error.make ~phase:"serve" Bgr_error.Io_error "%s" msg)

(* --- the worker process ------------------------------------------------ *)

external set_mem_limit_stub : int -> int = "bgr_serve_set_mem_limit_mb"

let set_mem_limit_mb mb = set_mem_limit_stub mb = 0

let oom_exit_code = 70

(* Per-attempt observability artifacts, named after the attempt
   ordinal so retries never clobber each other. *)
let trace_jsonl_file ~attempt = Printf.sprintf "trace-a%d.jsonl" attempt

let metrics_file ~attempt = Printf.sprintf "metrics-a%d.json" attempt

let obs_summary_file ~attempt = Printf.sprintf "obs-a%d.json" attempt

let obs_summary_json ~job ~attempt ~pid ~epoch_s ~trace_id ~spans =
  Qjson.to_string
    (Qjson.Obj
       [ ("job", Qjson.Str job);
         ("attempt", Qjson.int attempt);
         ("pid", Qjson.int pid);
         ("epoch_s", Qjson.num epoch_s);
         ("trace_id", Qjson.Str (Option.value trace_id ~default:""));
         ("jsonl", Qjson.Str (trace_jsonl_file ~attempt));
         ("metrics", Qjson.Str (metrics_file ~attempt));
         ("spans", Qjson.int spans);
         ("warnings", Qjson.Arr (List.map (fun w -> Qjson.Str w) (Obs.warnings ()))) ])

let main ?(domains = 0) ?default_deadline_ms ?(mem_limit_mb = 0) ?trace_id ?parent_span
    ?(obs = false) ~dir () =
  (* The supervisor may vanish (daemon kill -9): a dead report pipe
     must cost an EPIPE, not the worker. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  set_binary_mode_out stdout true;
  let send ev =
    try
      output_string stdout (encode_event ev);
      flush stdout
    with Sys_error _ -> ()
  in
  (* Built before routing starts: assembling it after [Out_of_memory]
     could itself fail. *)
  let oom_frame = encode_event (Fail { code = "oom"; message = "worker ran out of memory" }) in
  (try
     output_string stdout magic;
     flush stdout
   with Sys_error _ -> ());
  match Spool.read_manifest dir with
  | Error e ->
    send (Fail { code = Bgr_error.code_name e.Bgr_error.code; message = Bgr_error.to_string e });
    exit (Bgr_error.exit_code e.Bgr_error.code)
  | Ok job ->
    if mem_limit_mb > 0 && not (set_mem_limit_mb mem_limit_mb) then
      prerr_endline "bgr_serve worker: warning: could not apply the memory ceiling";
    (* Attempt-gated fault trips: counters are per-process and every
       attempt is a fresh process, so a plain [trip] would make [n=K]
       fire in every worker.  Tripping the site [attempts] times and
       keeping the last answer makes [SITE:n=K] mean "the K-th
       attempt's worker misbehaves" and [always] mean "every one
       does". *)
    let gate site =
      let fired = ref false in
      for _ = 1 to max 1 job.Spool.j_attempts do
        fired := Fault.trip site
      done;
      !fired
    in
    if gate "serve.worker.kill" then Unix.kill (Unix.getpid ()) Sys.sigkill;
    let hang = gate "serve.worker.hang" in
    let attempt_no = max 1 job.Spool.j_attempts in
    (* The supervisor's dump request is SIGQUIT: dump the flight
       recorder next to the job's other per-attempt artifacts and tell
       the daemon where it landed.  Installed before the hang gate so
       even the injected pathology is dumpable — the handler interrupts
       [Unix.sleep] at a safepoint, writes, and lets the loop resume
       (the SIGKILL follows from the supervisor). *)
    let flight_path () = Filename.concat dir (Flight.attempt_filename ~attempt:attempt_no) in
    Flight.install_sigquit_dump ~path:flight_path
      ~after:(fun p -> send (Dump { path = p }))
      ();
    if obs then begin
      Obs.enable ();
      Obs.Trace.set_pid (Unix.getpid ());
      Obs.Trace.set_trace_id trace_id;
      Obs.Trace.set_parent_span parent_span;
      Obs.Trace.to_jsonl_file (Filename.concat dir (trace_jsonl_file ~attempt:attempt_no))
    end;
    let progress = ref ("spawn", 0, 0, nan) in
    let beat () =
      let phase, pass, deletions, worst_margin_ps = !progress in
      send (Heartbeat { phase; pass; deletions; worst_margin_ps })
    in
    beat ();
    if hang then
      (* The injected pathology the watchdog exists for: alive, silent,
         making no progress. *)
      while true do
        Unix.sleep 3600
      done;
    let log m = prerr_endline ("bgr_serve worker: " ^ m) in
    let qlog_emit, qlog_finish =
      quality_sink ~log (Filename.concat dir Qlog.default_filename)
    in
    let on_quality (s : Router.quality_sample) =
      progress :=
        (s.Router.qs_phase, s.Router.qs_pass, s.Router.qs_deletions,
         s.Router.qs_worst_margin_ps);
      (match qlog_emit with Some emit -> emit s | None -> ());
      beat ()
    in
    let budget = budget_of ?default_deadline_ms job in
    (* Close the sinks, write the registry, and hand the daemon the
       obs summary *before* the terminal frame — the supervisor stops
       reading at Done/Fail.  Best-effort: a full disk must cost a
       warning, never the attempt's verdict. *)
    let finish_obs () =
      if obs then begin
        try
          Obs.Trace.close_sinks ();
          let write_file name contents =
            Out_channel.with_open_bin (Filename.concat dir name) (fun oc -> output_string oc contents)
          in
          write_file (metrics_file ~attempt:attempt_no) (Obs.Metrics.render_json ());
          let summary =
            obs_summary_json ~job:job.Spool.j_id ~attempt:attempt_no
              ~pid:(Unix.getpid ()) ~epoch_s:(Obs.Trace.epoch_s ()) ~trace_id
              ~spans:(List.length (Obs.Trace.completed ()))
          in
          write_file (obs_summary_file ~attempt:attempt_no) summary;
          send (Obs_summary { json = summary })
        with e ->
          prerr_endline ("bgr_serve worker: warning: obs finalize: " ^ Printexc.to_string e)
      end
    in
    (match
       Fun.protect ~finally:qlog_finish (fun () ->
           let run () = attempt ~domains ~budget ~on_quality ~dir job in
           if obs then
             Obs.Trace.span
               ~attrs:
                 [ ("job", Obs.Trace.Str job.Spool.j_id);
                   ("attempt", Obs.Trace.Int attempt_no) ]
               "worker.attempt" run
           else run ())
     with
    | Ok o ->
      finish_obs ();
      send
        (Done
           { json =
               result_json job.Spool.j_id o.Flow.o_measurement
                 ~attempts:job.Spool.j_attempts });
      exit 0
    | Error e ->
      finish_obs ();
      (* The black box survives the crash: the flight record is on disk
         before the failure frame goes out. *)
      let p = flight_path () in
      if Flight.dump_file ~reason:("error:" ^ Bgr_error.code_name e.Bgr_error.code) p then
        send (Dump { path = p });
      send
        (Fail { code = Bgr_error.code_name e.Bgr_error.code; message = Bgr_error.to_string e });
      exit (Bgr_error.exit_code e.Bgr_error.code)
    | exception Out_of_memory ->
      (* Dumping allocates a buffer; after [Out_of_memory] the heap may
         have room again (the failed allocation was usually the huge
         one).  Best-effort — the prebuilt OOM frame must go out even
         when it doesn't. *)
      (try ignore (Flight.dump_file ~reason:"oom" (flight_path ())) with _ -> ());
      (try
         output_string stdout oom_frame;
         flush stdout
       with _ -> ());
      exit oom_exit_code)

(* --- the supervisor (daemon side) -------------------------------------- *)

type kill_reason = Hang | Hard_deadline | Canceled | Signaled of int | Oom

(* [waitpid] reports OCaml's internal signal numbers (negative for the
   known ones); record the conventional POSIX number instead, so the
   manifest says "signal-9", not "signal--7". *)
let os_signal_number s =
  let known =
    [ (Sys.sighup, 1); (Sys.sigint, 2); (Sys.sigquit, 3); (Sys.sigill, 4);
      (Sys.sigabrt, 6); (Sys.sigbus, 7); (Sys.sigfpe, 8); (Sys.sigkill, 9);
      (Sys.sigsegv, 11); (Sys.sigpipe, 13); (Sys.sigalrm, 14); (Sys.sigterm, 15);
      (Sys.sigxcpu, 24); (Sys.sigxfsz, 25) ]
  in
  match List.assoc_opt s known with Some n -> n | None -> abs s

let kill_reason_string = function
  | Hang -> "hang"
  | Hard_deadline -> "hard-deadline"
  | Canceled -> "canceled"
  | Signaled s -> Printf.sprintf "signal-%d" (os_signal_number s)
  | Oom -> "oom"

type failure =
  | Failed of { code : string; message : string }
  | Killed of { reason : kill_reason; detail : string }
  | Spawn_error of string

type progress = {
  p_phase : string;
  p_pass : int;
  p_deletions : int;
  p_worst_margin_ps : float;
}

type verdict = V_ok | V_kill of kill_reason * string

(* The watchdog decision, extracted pure so the silence-vs-slow
   distinction is testable under an injected clock: a worker that
   heartbeats (however slowly) within the timeout is left alone; one
   that goes silent past it is hung; one that outlives the hard wall
   deadline is killed regardless of liveness. *)
let watchdog_verdict ~now_s ~started_s ~last_beat_s ~heartbeat_timeout_ms
    ~hard_deadline_ms ~canceled =
  if canceled then V_kill (Canceled, "cancel requested")
  else if (now_s -. last_beat_s) *. 1000. > heartbeat_timeout_ms then
    V_kill
      ( Hang,
        Printf.sprintf "no heartbeat for %.0f ms" ((now_s -. last_beat_s) *. 1000.) )
  else if (now_s -. started_s) *. 1000. > hard_deadline_ms then
    V_kill
      ( Hard_deadline,
        Printf.sprintf "still running after the hard %.0f ms wall deadline"
          hard_deadline_ms )
  else V_ok

(* Flight-event reason codes for [k_worker_kill] (the [a] field). *)
let kill_reason_flight_code = function
  | Hang -> 1
  | Hard_deadline -> 2
  | Canceled -> 3
  | Signaled _ -> 4
  | Oom -> 5

let supervise ?(heartbeat_timeout_ms = 10_000.) ?(hard_deadline_ms = infinity)
    ?(poll_ms = 50.) ?(dump_grace_ms = 500.) ?(canceled = fun () -> false)
    ?(on_progress = fun (_ : progress) -> ()) ?(on_spawn = fun (_ : int) -> ())
    ?(on_obs = fun (_ : string) -> ()) ?(on_dump = fun (_ : string) -> ()) ~log ~argv () =
  match Fault.check ~phase:"serve" "serve.worker.spawn" with
  | exception Bgr_error.Error e -> Error (Spawn_error e.Bgr_error.message)
  | () -> (
    let spawn () =
      let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
      let r, w = Unix.pipe ~cloexec:false () in
      match Unix.create_process argv.(0) argv dev_null w Unix.stderr with
      | exception e ->
        List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          [ dev_null; r; w ];
        Error (Printexc.to_string e)
      | pid ->
        (try Unix.close dev_null with Unix.Unix_error _ -> ());
        (try Unix.close w with Unix.Unix_error _ -> ());
        Ok (pid, r)
    in
    match spawn () with
    | Error msg -> Error (Spawn_error msg)
    | Ok (pid, r) ->
      on_spawn pid;
      Flight.record Flight.k_worker_spawn ~a:0 ~b:0 ~c:pid ~d:0;
      let started = Obs.now_s () in
      let last_beat = ref started in
      let rbuf = ref "" in
      let greeted = ref false in
      let result = ref None in
      let killed = ref None in
      let eof = ref false in
      let dumped = ref None in
      (* [kill] drains the pipe during the dump grace, which needs the
         frame parser — which itself calls [kill] on a protocol error
         (a no-op then, [killed] is already set).  Tie the knot with a
         forward reference. *)
      let consume = ref (fun () -> ()) in
      let kill why =
        if !killed = None then begin
          killed := Some why;
          (match why with
          | `Reason (reason, detail) ->
            Flight.record Flight.k_worker_kill
              ~a:(kill_reason_flight_code reason)
              ~b:(match reason with Signaled s -> os_signal_number s | _ -> 0)
              ~c:pid ~d:0;
            log
              (Printf.sprintf "worker %d killed (%s): %s" pid (kill_reason_string reason)
                 detail)
          | `Protocol msg ->
            Flight.record Flight.k_worker_kill ~a:0 ~b:0 ~c:pid ~d:0;
            log (Printf.sprintf "worker %d killed (protocol): %s" pid msg));
          (* Black-box protocol: SIGQUIT is the dump request.  Give the
             worker a short grace to write its flight record and report
             the path, then SIGKILL.  A protocol violation skips the
             grace — that pipe can no longer be trusted. *)
          (match why with
          | `Protocol _ -> ()
          | `Reason _ ->
            (try Unix.kill pid Sys.sigquit with Unix.Unix_error _ -> ());
            let deadline = Unix.gettimeofday () +. (dump_grace_ms /. 1000.) in
            let waiting = ref (dump_grace_ms > 0.) in
            while !waiting && !dumped = None && Unix.gettimeofday () < deadline do
              match Unix.select [ r ] [] [] 0.02 with
              | [], _, _ -> ()
              | _ :: _, _, _ -> (
                let buf = Bytes.create 65536 in
                match Unix.read r buf 0 (Bytes.length buf) with
                | 0 -> waiting := false
                | n ->
                  rbuf := !rbuf ^ Bytes.sub_string buf 0 n;
                  !consume ()
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            done);
          try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
        end
      in
      let consume_frames () =
        if not !greeted then begin
          let ml = String.length magic in
          if String.length !rbuf >= ml then begin
            if String.sub !rbuf 0 ml = magic then begin
              greeted := true;
              rbuf := String.sub !rbuf ml (String.length !rbuf - ml)
            end
            else kill (`Protocol "bad worker-pipe magic")
          end
        end;
        if !greeted then begin
          let continue = ref true in
          while !continue do
            match Wire.extract_frame !rbuf ~pos:0 with
            | Wire.Need _ -> continue := false
            | Wire.Bad e ->
              kill (`Protocol e.Bgr_error.message);
              continue := false
            | Wire.Frame (payload, used) -> (
              rbuf := String.sub !rbuf used (String.length !rbuf - used);
              match decode_event payload with
              | Error e ->
                kill (`Protocol e.Bgr_error.message);
                continue := false
              | Ok ev ->
                last_beat := Obs.now_s ();
                (match ev with
                | Heartbeat { phase; pass; deletions; worst_margin_ps } ->
                  on_progress
                    { p_phase = phase;
                      p_pass = pass;
                      p_deletions = deletions;
                      p_worst_margin_ps = worst_margin_ps }
                | Done { json } -> result := Some (Ok json)
                | Fail { code; message } -> result := Some (Error (code, message))
                | Obs_summary { json } -> on_obs json
                | Dump { path } ->
                  dumped := Some path;
                  log (Printf.sprintf "worker %d dumped its flight record to %s" pid path);
                  on_dump path))
          done
        end
      in
      consume := consume_frames;
      while (not !eof) && !result = None && !killed = None do
        (match Unix.select [ r ] [] [] (poll_ms /. 1000.) with
        | [], _, _ -> ()
        | _ :: _, _, _ -> (
          let buf = Bytes.create 65536 in
          match Unix.read r buf 0 (Bytes.length buf) with
          | 0 -> eof := true
          | n ->
            rbuf := !rbuf ^ Bytes.sub_string buf 0 n;
            consume_frames ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        if (not !eof) && !result = None && !killed = None then
          match
            watchdog_verdict ~now_s:(Obs.now_s ()) ~started_s:started
              ~last_beat_s:!last_beat ~heartbeat_timeout_ms ~hard_deadline_ms
              ~canceled:(canceled ())
          with
          | V_ok -> ()
          | V_kill (reason, detail) -> kill (`Reason (reason, detail))
      done;
      (* A final frame or a kill ends supervision without waiting for
         EOF: a child that lingers past its last frame — or leaves an
         orphaned grandchild holding the pipe's write end open — must
         not wedge the executor until the pipe drains.  The SIGKILL is
         a no-op when the child already exited (it is not yet reaped,
         so the pid cannot have been reused). *)
      if not !eof then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try Unix.close r with Unix.Unix_error _ -> ());
      let status =
        let rec wait () =
          match Unix.waitpid [] pid with
          | _, status -> status
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        in
        wait ()
      in
      (match (!killed, !result, status) with
      | Some (`Protocol msg), _, _ ->
        Error (Failed { code = "internal"; message = "worker pipe protocol violation: " ^ msg })
      | Some (`Reason (reason, detail)), _, _ -> Error (Killed { reason; detail })
      | None, Some (Ok json), _ -> Ok json
      | None, Some (Error (code, message)), _ ->
        if code = "oom" then Error (Killed { reason = Oom; detail = message })
        else Error (Failed { code; message })
      | None, None, Unix.WSIGNALED s ->
        Error
          (Killed
             { reason = Signaled s;
               detail = Printf.sprintf "worker killed by signal %d" (os_signal_number s) })
      | None, None, Unix.WEXITED n when n = oom_exit_code ->
        Error (Killed { reason = Oom; detail = "worker exited with the OOM code" })
      | None, None, Unix.WEXITED n ->
        Error
          (Failed
             { code = "internal";
               message = Printf.sprintf "worker exited with code %d without a result" n })
      | None, None, Unix.WSTOPPED s ->
        Error
          (Failed
             { code = "internal";
               message = Printf.sprintf "worker stopped by signal %d unexpectedly" s })))
