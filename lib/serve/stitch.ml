(* Cross-process trace stitching: fold one worker attempt's recorded
   observability (spans + metrics) back into the supervising
   daemon's tracer and registry.

   The worker hands the daemon an obs summary json (via the BGRW1
   [Obs_summary] frame) naming its artifact files inside the job's
   spool directory.  We re-read the JSONL span stream, re-base its
   timestamps from the worker's trace epoch onto the daemon's, and
   re-emit each span as-is — worker pid, span ids, parent links and
   the shared trace id all survive, so one Perfetto load of the
   daemon's chrome trace shows serve.job -> serve.worker -> the
   worker's own phase spans.  The worker's metrics JSON merges
   additively.

   Everything here is best-effort in the Obs failure-policy sense: a
   missing file, torn json line or incompatible metric family costs a
   warning, never the job. *)

type report = { st_spans : int; st_series : int }

let empty = { st_spans = 0; st_series = 0 }

(* One JSONL line back into a span record.  The writer is
   [Obs.Trace.jsonl_line]; attribute kinds survive as well as JSON
   allows (ints come back as Float — [attr_to_string] renders both
   identically for integral values). *)
let span_of_json j =
  let open Qjson in
  let str k = Option.bind (member k j) to_str in
  let num k = Option.bind (member k j) to_float in
  match (str "name", num "start_us", num "dur_us") with
  | Some name, Some start_us, Some dur_us ->
    let int_of k d =
      match Option.bind (member k j) to_int with Some v -> v | None -> d
    in
    let attrs =
      match Option.bind (member "args" j) to_obj with
      | None -> []
      | Some kvs ->
        List.filter_map
          (fun (k, v) ->
            match v with
            | Str s -> Some (k, Obs.Trace.Str s)
            | Num f ->
              if Float.is_integer f && Float.abs f < 1e15 then
                Some (k, Obs.Trace.Int (int_of_float f))
              else Some (k, Obs.Trace.Float f)
            | Bool b -> Some (k, Obs.Trace.Bool b)
            | Null | Arr _ | Obj _ -> None)
          kvs
    in
    Some
      { Obs.Trace.sp_name = name;
        sp_start_us = start_us;
        sp_dur_us = dur_us;
        sp_depth = int_of "depth" 0;
        sp_id = int_of "id" 0;
        sp_parent = int_of "parent" 0;
        sp_pid = int_of "pid" 0;
        sp_attrs = attrs }
  | _ -> None

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

let merge ~dir ~summary_json () =
  match Qjson.parse summary_json with
  | Error msg ->
    Obs.warn "stitch: unreadable worker obs summary: %s" msg;
    empty
  | Ok j ->
    let str k = Option.bind (Qjson.member k j) Qjson.to_str in
    let source =
      match (str "job", Option.bind (Qjson.member "pid" j) Qjson.to_int) with
      | Some job, Some pid -> Printf.sprintf "worker pid %d (job %s)" pid job
      | _ -> "worker"
    in
    (* Epoch delta re-bases the worker's relative timestamps onto the
       daemon's timeline.  Either epoch missing (obs disabled on one
       side) degrades to no shift rather than NaN timestamps. *)
    let offset_us =
      let worker_epoch =
        match Option.bind (Qjson.member "epoch_s" j) Qjson.to_float with
        | Some e -> e
        | None -> nan
      in
      let daemon_epoch = Obs.Trace.epoch_s () in
      let d = (worker_epoch -. daemon_epoch) *. 1e6 in
      if Float.is_nan d then 0.0 else d
    in
    (* Each artifact the summary names is read whole; a missing name
       or file costs a warning and counts nothing. *)
    let from_artifact key f =
      match str key with
      | None ->
        Obs.warn "stitch (%s): summary names no %s file" source key;
        0
      | Some file -> (
        match read_file (Filename.concat dir file) with
        | None ->
          Obs.warn "stitch (%s): cannot read %s" source file;
          0
        | Some text -> f text)
    in
    let spans =
      from_artifact "jsonl" (fun text ->
          let n = ref 0 in
          List.iter
            (fun line ->
              if String.trim line <> "" then
                match Result.to_option (Qjson.parse line) with
                | None -> Obs.warn "stitch (%s): torn jsonl line skipped" source
                | Some lj -> (
                  match span_of_json lj with
                  | None -> Obs.warn "stitch (%s): non-span jsonl line skipped" source
                  | Some sp ->
                    Obs.Trace.emit_foreign
                      { sp with
                        Obs.Trace.sp_start_us = sp.Obs.Trace.sp_start_us +. offset_us };
                    incr n))
            (String.split_on_char '\n' text);
          !n)
    in
    let series = from_artifact "metrics" (Obs.Metrics.merge_json ~source) in
    { st_spans = spans; st_series = series }
