(* The serve drive of a traced run, in a fresh process: a closed loop
   against [bgr_serve daemon --domains 1] subprocesses.  It measures the
   serve, persist and analyze layers.

   One thread keeps two connections busy (one per core), each with one
   wait-mode job outstanding, so one job is always queued behind the
   running one.  The daemon runs jobs in arrival order, so the oldest
   outstanding job is always the next to finish and the loop needs no
   select.  Jobs are drawn round-robin from the pool. *)

let now = Unix.gettimeofday

let daemons : int list ref = ref []

(* Never leave a daemon behind, whatever happens to this process. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !daemons)

(* Start a daemon on a fresh spool and wait until its socket accepts a
   connection and greets; returns its pid and socket. *)
let start_daemon ~serve_exe ~dir ~in_process =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sock = Filename.concat dir "d.sock" in
  let args =
    [ serve_exe; "daemon"; "--socket"; sock; "--spool"; Filename.concat dir "spool";
      "--domains"; "1"; "--quiet" ]
    @ if in_process then [ "--in-process" ] else []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = now () in
  let pid = Unix.create_process serve_exe (Array.of_list args) devnull devnull Unix.stderr in
  Unix.close devnull;
  daemons := pid :: !daemons;
  let rec wait () =
    match Serve_client.connect sock with
    | Ok c -> c
    | Error e ->
      if now () -. t0 > 30.0 then failwith ("daemon did not start: " ^ Bgr_error.to_string e);
      Unix.sleepf 0.0005;
      wait ()
  in
  Serve_client.close (wait ());
  (pid, sock)

let stop_daemon (pid, sock) =
  (match Serve_client.connect sock with
  | Ok c ->
    ignore (Serve_client.request ~timeout_s:60.0 c Wire.Shutdown);
    Serve_client.close c
  | Error _ -> Unix.kill pid Sys.sigterm);
  ignore (Unix.waitpid [] pid);
  daemons := List.filter (( <> ) pid) !daemons

type job = {
  j_design : string;
  j_latency_ms : float;
  j_accept_ms : float;
  j_result : string;  (** result JSON, or the error *)
  j_ok : bool;
}

let job_json j =
  Qjson.Obj
    [ ("design", Qjson.Str j.j_design); ("latency_ms", Qjson.num j.j_latency_ms);
      ("accept_ms", Qjson.num j.j_accept_ms); ("ok", Qjson.Bool j.j_ok);
      ("result", Qjson.Str j.j_result) ]

(* Closed loop until [deadline] has passed and at least [min_jobs]
   completed.  Returns the jobs in completion order. *)
let drive ~sock ~pool ~deadline ~min_jobs ~label =
  let conns =
    Array.init 2 (fun _ ->
        match Serve_client.connect sock with
        | Ok c -> c
        | Error e -> failwith (Bgr_error.to_string e))
  in
  let n_pool = Array.length pool in
  let next = ref 0 in
  let outstanding = Queue.create () in
  let failed_submit k msg =
    { j_design = fst pool.(k mod n_pool); j_latency_ms = 0.0; j_accept_ms = 0.0;
      j_result = msg; j_ok = false }
  in
  let jobs = ref [] in
  let submit c =
    let k = !next in
    incr next;
    let name, (text, timing_driven) = pool.(k mod n_pool) in
    let t0 = now () in
    let req =
      Wire.Route
        { wait = true; progress = false; timing_driven; deadline_ms = None;
          name = Some (Printf.sprintf "%s%d" label k); design = text }
    in
    match Serve_client.request ~timeout_s:120.0 conns.(c) req with
    | Ok (Wire.Accepted _) -> Queue.push (c, k, name, t0, (now () -. t0) *. 1000.0) outstanding
    | Ok (Wire.Overloaded { reason; _ }) -> jobs := failed_submit k ("refused: " ^ reason) :: !jobs
    | Ok _ -> jobs := failed_submit k "unexpected reply to route" :: !jobs
    | Error e -> jobs := failed_submit k (Bgr_error.to_string e) :: !jobs
  in
  submit 0;
  submit 1;
  while not (Queue.is_empty outstanding) do
    let c, k, name, t0, accept_ms = Queue.pop outstanding in
    let span_start = t0 *. 1e6 in
    let j =
      match Serve_client.next_reply ~timeout_s:120.0 conns.(c) with
      | Ok (Wire.Result { ok; json; _ }) ->
        { j_design = name; j_latency_ms = (now () -. t0) *. 1000.0; j_accept_ms = accept_ms;
          j_result = json; j_ok = ok }
      | Ok _ -> failed_submit k "unexpected reply while waiting"
      | Error e -> failed_submit k (Bgr_error.to_string e)
    in
    let id =
      Pb_trace.add ~design:name ~name:"serve.job" ~start_us:span_start
        ~stop_us:(Pb_trace.now_us ()) ()
    in
    ignore
      (Pb_trace.add ~design:name ~parent:id ~name:"serve.accept" ~start_us:span_start
         ~stop_us:(span_start +. (accept_ms *. 1000.0)) ());
    jobs := j :: !jobs;
    let done_ = List.length !jobs in
    if j.j_ok && (now () < deadline || done_ + Queue.length outstanding < min_jobs) then submit c
  done;
  Array.iter Serve_client.close conns;
  List.rev !jobs

let worker_spawns sock =
  match Serve_client.connect sock with
  | Error _ -> -1
  | Ok c ->
    let n =
      match Serve_client.request ~timeout_s:30.0 c (Wire.Stats { prom = true }) with
      | Ok (Wire.Rstats { body; _ }) ->
        String.split_on_char '\n' body
        |> List.fold_left
             (fun acc line ->
               if String.starts_with ~prefix:"serve_worker_spawns_total" line then
                 match String.rindex_opt line ' ' with
                 | Some i -> (
                   match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
                   | Some v -> acc + int_of_float v
                   | None -> acc)
                 | None -> acc
               else acc)
             0
      | _ -> -1
    in
    Serve_client.close c;
    n

(* Bytes of journal, snapshot and quality-log files under a spool. *)
let spool_bytes root =
  let journal = ref 0 and snapshot = ref 0 and qlog = ref 0 in
  let rec walk path =
    match (Unix.lstat path).Unix.st_kind with
    | Unix.S_DIR -> Array.iter (fun f -> walk (Filename.concat path f)) (Sys.readdir path)
    | Unix.S_REG ->
      let size = (Unix.lstat path).Unix.st_size in
      if Filename.check_suffix path ".bgrj" then journal := !journal + size
      else if Filename.check_suffix path ".bgrs" then snapshot := !snapshot + size
      else if Filename.check_suffix path ".bgrq" then qlog := !qlog + size
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  walk root;
  (!journal, !snapshot, !qlog)

(* Entry point of [bench.exe drive]: prints one JSON object.  The pool
   is read from [dir]; daemons spool under [out].  [seconds] is the
   drive's budget: 60 % of it against a daemon with worker isolation,
   40 % against a second, [--in-process] daemon for the
   worker-isolation overhead. *)
let main ~dir ~out ~serve_exe ~seconds ~min_jobs =
  let entries = Pb_rep.read_manifest dir in
  let pool =
    Array.of_list
      (List.map
         (fun e ->
           (e.Pb_rep.e_name, (Pb_rep.read_file (Filename.concat dir e.Pb_rep.e_file), e.Pb_rep.e_timing)))
         entries)
  in
  let run ~in_process ~share ~label =
    let ddir = Filename.concat out label in
    let pid, sock =
      Pb_trace.with_span "serve.daemon_start" (fun () ->
          start_daemon ~serve_exe ~dir:ddir ~in_process)
    in
    let deadline = now () +. (seconds *. share) in
    let jobs = Pb_trace.with_span "serve.drive" (fun () -> drive ~sock ~pool ~deadline ~min_jobs ~label) in
    let spawns = worker_spawns sock in
    stop_daemon (pid, sock);
    (jobs, spawns, spool_bytes (Filename.concat ddir "spool"))
  in
  let jobs, spawns, (jb, sb, qb) = run ~in_process:false ~share:0.6 ~label:"w" in
  let inproc, _, _ = run ~in_process:true ~share:0.4 ~label:"i" in
  print_endline
    (Qjson.to_string
       (Qjson.Obj
          [ ("jobs", Qjson.Arr (List.map job_json jobs));
            ("worker_spawns", Qjson.int spawns);
            ("journal_bytes", Qjson.int jb);
            ("snapshot_bytes", Qjson.int sb);
            ("qlog_bytes", Qjson.int qb);
            ("inproc_jobs", Qjson.Arr (List.map job_json inproc));
            ("spans", Qjson.Arr (List.rev_map Pb_trace.to_json !Pb_trace.spans)) ]))
