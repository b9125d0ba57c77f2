type record = {
  r_phase : string;
  r_area_mode : bool;
  r_net : int;
  r_edge : int;
  r_deletions_before : int;
  r_hash_before : int;
}

let format =
  { Frame.magic = "BGRJ1\n"; noun = "deletion journal"; phase = "persist"; max_len = 0xFFFF }
let magic = format.Frame.magic
let header_bytes = String.length magic
let payload_len = 26

let phase_code = function
  | "initial_route" -> 0
  | "recover_violations" -> 1
  | "improve_delay" -> 2
  | "improve_area" -> 3
  | "final_recovery" -> 4
  | "final_delay" -> 5
  | _ -> 255

let phase_name = function
  | 0 -> "initial_route"
  | 1 -> "recover_violations"
  | 2 -> "improve_delay"
  | 3 -> "improve_area"
  | 4 -> "final_recovery"
  | 5 -> "final_delay"
  | _ -> "unknown"

let encode_payload r =
  let b = Bytes.create payload_len in
  Bytes.set_uint8 b 0 (phase_code r.r_phase);
  Bytes.set_uint8 b 1 (if r.r_area_mode then 1 else 0);
  Bytes.set_int32_be b 2 (Int32.of_int r.r_net);
  Bytes.set_int32_be b 6 (Int32.of_int r.r_edge);
  Bytes.set_int64_be b 10 (Int64.of_int r.r_deletions_before);
  Bytes.set_int64_be b 18 (Int64.of_int r.r_hash_before);
  Bytes.unsafe_to_string b

let decode_payload s pos len =
  if len <> payload_len then
    raise (Frame.Malformed (Printf.sprintf "unsupported record length %d" len));
  { r_phase = phase_name (Char.code s.[pos]);
    r_area_mode = Char.code s.[pos + 1] <> 0;
    r_net = Frame.get_u32 s (pos + 2);
    r_edge = Frame.get_u32 s (pos + 6);
    r_deletions_before = Int64.to_int (String.get_int64_be s (pos + 10));
    r_hash_before = Int64.to_int (String.get_int64_be s (pos + 18)) }

let encode_frame r = Frame.encode (encode_payload r)

(* --- writing --------------------------------------------------------- *)

(* Registered eagerly at module load so the metric catalogue renders
   (zero-valued) even on runs that never open a journal. *)
let m_append =
  Obs.Metrics.histogram "bgr_journal_append_seconds"
    ~help:"Latency of one write-ahead journal append (encode + write + flush)"

let m_fsync =
  Obs.Metrics.histogram "bgr_journal_fsync_seconds"
    ~help:"Latency of one journal fsync (checkpoint durability barrier)"

let timed fam f =
  if Obs.enabled () then begin
    let t0 = Obs.now_s () in
    let r = f () in
    Obs.Metrics.observe fam (Obs.now_s () -. t0);
    r
  end
  else f ()

type writer = { w_oc : out_channel; w_path : string; mutable w_closed : bool }

let io_error path e what =
  Bgr_error.raise_error ~phase:"persist" ~file:path Bgr_error.Io_error "%s: %s" what
    (Unix.error_message e)

let create ~path =
  match open_out_bin path with
  | oc ->
    output_string oc magic;
    flush oc;
    { w_oc = oc; w_path = path; w_closed = false }
  | exception Sys_error msg ->
    Bgr_error.raise_error ~phase:"persist" ~file:path Bgr_error.Io_error "%s" msg

let reopen ~path ~keep_bytes =
  let fd =
    try Unix.openfile path [ Unix.O_WRONLY ] 0o644
    with Unix.Unix_error (e, _, _) -> io_error path e "cannot reopen journal"
  in
  (try
     Unix.ftruncate fd keep_bytes;
     ignore (Unix.lseek fd keep_bytes Unix.SEEK_SET)
   with Unix.Unix_error (e, _, _) ->
     Unix.close fd;
     io_error path e "cannot truncate journal");
  let oc = Unix.out_channel_of_descr fd in
  set_binary_mode_out oc true;
  { w_oc = oc; w_path = path; w_closed = false }

(* Write-ahead: the caller applies the deletion only after this
   returns, so a fault/kill here loses at most the deletion that was
   never applied — which the resumed run re-derives.  The append runs
   on the orchestrating domain only (the router applies deletions
   sequentially); [Persist] asserts this. *)
let append w r =
  Fault.check ~phase:"persist" "persist.append";
  timed m_append (fun () ->
      output_string w.w_oc (encode_frame r);
      flush w.w_oc)

let sync w =
  Fault.check ~phase:"persist" "persist.fsync";
  timed m_fsync (fun () ->
      flush w.w_oc;
      (try Unix.fsync (Unix.descr_of_out_channel w.w_oc) with Unix.Unix_error _ -> ());
      Flight.record Flight.k_journal_sync ~a:0 ~b:0 ~c:0 ~d:(pos_out w.w_oc))

let close w =
  if not w.w_closed then begin
    w.w_closed <- true;
    try flush w.w_oc; close_out_noerr w.w_oc with Sys_error _ -> ()
  end

(* --- reading --------------------------------------------------------- *)

type read_result = {
  records : (record * int) list;
  valid_bytes : int;
  torn : bool;
  warnings : string list;
}

let of_salvage (r : record Frame.salvage) =
  { records = r.Frame.records; valid_bytes = r.valid_bytes; torn = r.torn; warnings = r.warnings }

let read_string ?file s = Result.map of_salvage (Frame.read_string format ?file decode_payload s)
let read ~path = Result.map of_salvage (Frame.read format ~path decode_payload)
