let job_file = "JOB"
let result_file = "RESULT"
let error_file = "ERROR"

let ( / ) = Filename.concat

type job = Job_manifest.job = {
  j_id : string;
  j_timing_driven : bool;
  j_deadline_ms : int option;
  j_attempts : int;
  j_kills : int;
  j_last_kill : string;
  j_kill_history : string list;
}

type t = { t_root : string; mutable t_scan_warnings : string list }

let io_fail path msg =
  Bgr_error.raise_error ~phase:"serve" ~file:path Bgr_error.Io_error "%s" msg

let ensure_dir dir =
  try Unix.mkdir dir 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | Unix.Unix_error (e, _, _) -> io_fail dir (Unix.error_message e)

let open_root root =
  ensure_dir root;
  ensure_dir (root / "jobs");
  ensure_dir (root / "dead");
  ensure_dir (root / "quarantine");
  { t_root = root; t_scan_warnings = [] }

let root t = t.t_root

let job_dir t id = t.t_root / "jobs" / id

let dead_dir t id = t.t_root / "dead" / id

let quarantine_dir t id = t.t_root / "quarantine" / id

(* Atomic durable write (temp file, fsync, rename) with a structured
   error. *)
let write_file_atomic path s =
  try Obs.write_file_atomic path s with Sys_error msg -> io_fail path msg

let read_file path =
  match Lineio.read_all path with
  | s -> Ok s
  | exception Sys_error msg ->
    Error (Bgr_error.make ~file:path ~phase:"serve" Bgr_error.Io_error "%s" msg)

let list_dir path =
  match Sys.readdir path with
  | entries ->
    let l = Array.to_list entries in
    List.sort compare l
  | exception Sys_error _ -> []

let exists t id =
  Sys.file_exists (job_dir t id)
  || Sys.file_exists (dead_dir t id)
  || Sys.file_exists (quarantine_dir t id)

let fresh_id t =
  let numeric_suffix name =
    if String.length name > 4 && String.sub name 0 4 = "job-" then
      int_of_string_opt (String.sub name 4 (String.length name - 4))
    else None
  in
  let top =
    List.fold_left
      (fun acc name -> match numeric_suffix name with Some n -> max acc n | None -> acc)
      0
      (list_dir (t.t_root / "jobs")
      @ list_dir (t.t_root / "dead")
      @ list_dir (t.t_root / "quarantine"))
  in
  Printf.sprintf "job-%06d" (top + 1)

let accept t j ~design_text =
  let dir = job_dir t j.j_id in
  ensure_dir dir;
  write_file_atomic (dir / Persist.design_file) design_text;
  write_file_atomic (dir / job_file) (Job_manifest.job_string j)

let load_job t id =
  let candidates = [ job_dir t id; dead_dir t id; quarantine_dir t id ] in
  let path =
    match List.find_opt (fun d -> Sys.file_exists (d / job_file)) candidates with
    | Some d -> d / job_file
    | None -> job_dir t id / job_file
  in
  Result.bind (read_file path) (Job_manifest.parse_job ~file:path)

let read_manifest dir =
  let path = dir / job_file in
  Result.bind (read_file path) (Job_manifest.parse_job ~file:path)

let record_attempt t j =
  let j = { j with j_attempts = j.j_attempts + 1 } in
  write_file_atomic (job_dir t j.j_id / job_file) (Job_manifest.job_string j);
  j

let record_kill t j ~reason =
  let j =
    { j with
      j_kills = j.j_kills + 1;
      j_last_kill = reason;
      j_kill_history = j.j_kill_history @ [ reason ] }
  in
  write_file_atomic (job_dir t j.j_id / job_file) (Job_manifest.job_string j);
  j

let mark_done t id ~json = write_file_atomic (job_dir t id / result_file) (json ^ "\n")

let retire t id ~json =
  let dir = job_dir t id in
  write_file_atomic (dir / error_file) (json ^ "\n");
  match Sys.rename dir (dead_dir t id) with
  | () -> ()
  | exception Sys_error msg -> io_fail dir msg

let quarantine t id ~json =
  let dir = job_dir t id in
  write_file_atomic (dir / error_file) (json ^ "\n");
  match Sys.rename dir (quarantine_dir t id) with
  | () -> ()
  | exception Sys_error msg -> io_fail dir msg

type state = Pending of job | Done of string | Dead of string | Quarantined of string

let state_of t id =
  let live = job_dir t id in
  let error_json dir fallback =
    match read_file (dir / error_file) with
    | Ok s -> String.trim s
    | Error _ -> fallback
  in
  if Sys.file_exists live then begin
    let result = live / result_file in
    if Sys.file_exists result then
      match read_file result with
      | Ok s -> Some (Done (String.trim s))
      | Error _ -> Some (Done "{}")
    else
      match load_job t id with
      | Ok j -> Some (Pending j)
      | Error _ -> None
  end
  else if Sys.file_exists (dead_dir t id) then
    Some (Dead (error_json (dead_dir t id) "{}"))
  else if Sys.file_exists (quarantine_dir t id) then
    Some (Quarantined (error_json (quarantine_dir t id) "{}"))
  else None

let revive ?(force = false) t id =
  let dead = dead_dir t id and quarantined = quarantine_dir t id in
  let from =
    if Sys.file_exists dead then Ok dead
    else if Sys.file_exists quarantined then
      if force then Ok quarantined
      else
        Error
          (Bgr_error.make ~phase:"serve" Bgr_error.Validate
             "job %s is quarantined (it repeatedly killed its worker); revive it with force \
              to retry anyway"
             id)
    else
      Error
        (Bgr_error.make ~phase:"serve" Bgr_error.Validate
           "job %s is not in the dead-letter or quarantine dir" id)
  in
  Result.bind from (fun src ->
      match Sys.rename src (job_dir t id) with
      | exception Sys_error msg ->
        Error (Bgr_error.make ~file:src ~phase:"serve" Bgr_error.Io_error "%s" msg)
      | () ->
        (try Sys.remove (job_dir t id / error_file) with Sys_error _ -> ());
        Result.map
          (fun j ->
            let j =
              { j with j_attempts = 0; j_kills = 0; j_last_kill = ""; j_kill_history = [] }
            in
            write_file_atomic (job_dir t id / job_file) (Job_manifest.job_string j);
            j)
          (load_job t id))

let scan t =
  t.t_scan_warnings <- [];
  List.filter_map
    (fun id ->
      let dir = t.t_root / "jobs" / id in
      if not (Sys.is_directory dir) then None
      else if Sys.file_exists (dir / result_file) then None
      else
        match load_job t id with
        | Ok j -> Some j
        | Error e ->
          t.t_scan_warnings <-
            t.t_scan_warnings
            @ [ Printf.sprintf "skipping job %s: %s" id e.Bgr_error.message ];
          None)
    (list_dir (t.t_root / "jobs"))

let scan_warnings t = t.t_scan_warnings
