(* The black-box flight recorder.  See flight.mli for the cost
   contract; the short version: [record] is a few unsafe byte stores
   into a preallocated per-domain arena, everything else (dumping,
   reading) is cold. *)

let format =
  { Frame.magic = "BGRF1\n"; noun = "flight record"; phase = "obs"; max_len = 0xFFFFFF }
let magic = format.Frame.magic
let default_filename = "flight.bgrf"
let attempt_filename ~attempt = Printf.sprintf "flight-a%d.bgrf" attempt

(* --- event vocabulary ------------------------------------------------- *)

let k_deletion = 1
let k_phase = 2
let k_pass = 3
let k_journal_sync = 4
let k_snapshot = 5
let k_pool_round = 6
let k_serve_op = 7
let k_heartbeat = 8
let k_retry = 9
let k_stop = 10
let k_error = 11
let k_dump = 12
let k_worker_spawn = 13
let k_worker_kill = 14

let kind_name = function
  | 1 -> "deletion"
  | 2 -> "phase"
  | 3 -> "pass"
  | 4 -> "journal_sync"
  | 5 -> "snapshot"
  | 6 -> "pool_round"
  | 7 -> "serve_op"
  | 8 -> "heartbeat"
  | 9 -> "retry"
  | 10 -> "stop"
  | 11 -> "error"
  | 12 -> "dump"
  | 13 -> "worker_spawn"
  | 14 -> "worker_kill"
  | k -> Printf.sprintf "kind_%d" k

(* The journal's phase numbering, duplicated here because the recorder
   must not depend on bgr_persist (which depends on this library). *)
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

let criterion_code = function
  | "delay" -> 1
  | "density" -> 2
  | "length" -> 3
  | "delay_count" -> 4
  | "gl_ld" -> 5
  | "only_candidate" -> 6
  | "id_tie_break" -> 7
  | _ -> 0

let criterion_name = function
  | 1 -> "delay"
  | 2 -> "density"
  | 3 -> "length"
  | 4 -> "delay_count"
  | 5 -> "gl_ld"
  | 6 -> "only_candidate"
  | 7 -> "id_tie_break"
  | _ -> "unknown"

(* Worst margins ride in the int-typed [d] field as milli-ps so the
   record path never boxes a float.  min_int is the nan sentinel and
   the magnitude saturates two steps short of it, so decode is
   unambiguous. *)
let margin_nan_sentinel = min_int
let margin_cap = max_int - 1

let margin_encode ps =
  if Float.is_nan ps then margin_nan_sentinel
  else
    let v = ps *. 1000.0 in
    if v >= float_of_int margin_cap then margin_cap
    else if v <= float_of_int (-margin_cap) then -margin_cap
    else int_of_float v

let margin_decode d = if d = margin_nan_sentinel then Float.nan else float_of_int d /. 1000.0

(* --- per-domain rings ------------------------------------------------- *)

let slot_bytes = 24
let ring_slots = 4096

type live_ring = {
  r_buf : Bytes.t;  (* ring_slots * slot_bytes, oldest overwritten first *)
  mutable r_next : int;  (* events ever recorded by this domain *)
  r_domain : int;
}

(* The registry of every ring ever created, for dump time.  Lock-free:
   a new domain CAS-prepends its ring once; readers just [Atomic.get].
   No mutex anywhere near this module — a dump triggered from a signal
   handler must never deadlock on a lock the interrupted code holds. *)
let registry : live_ring list Atomic.t = Atomic.make []

let register r =
  let rec go () =
    let old = Atomic.get registry in
    if not (Atomic.compare_and_set registry old (r :: old)) then go ()
  in
  go ()

let ring_key =
  Domain.DLS.new_key (fun () ->
      let r =
        { r_buf = Bytes.make (ring_slots * slot_bytes) '\000';
          r_next = 0;
          r_domain = (Domain.self () :> int) }
      in
      register r;
      r)

let enabled_flag = ref true
let enabled () = !enabled_flag
let set_enabled v = enabled_flag := v

(* Epoch and clock.  The raw clock is deliberately not monotonicized:
   that would need shared mutable state and a lock, and a rare
   backwards step only perturbs forensic timestamps, never routing. *)
let real_epoch = ref (Unix.gettimeofday ())
let test_clock : (unit -> float) option ref = ref None

let set_clock_for_tests c =
  test_clock := c;
  real_epoch := (match c with Some _ -> 0.0 | None -> Unix.gettimeofday ())

let epoch_s () = !real_epoch

let now_us () =
  match !test_clock with
  | Some f -> int_of_float (f () *. 1e6)
  | None -> int_of_float ((Unix.gettimeofday () -. !real_epoch) *. 1e6)

let reset_for_tests () =
  Atomic.set registry [];
  Domain.DLS.set ring_key
    { r_buf = Bytes.make (ring_slots * slot_bytes) '\000';
      r_next = 0;
      r_domain = (Domain.self () :> int) };
  register (Domain.DLS.get ring_key);
  real_epoch := (match !test_clock with Some _ -> 0.0 | None -> Unix.gettimeofday ())

(* Slot layout: kind u8 | a u8 | b u16 | c u32 | d i64 | t_us i64, all
   big-endian, written with unsafe char stores — no Int32/Int64 boxing
   on the hot path. *)
let put8 buf off v = Bytes.unsafe_set buf off (Char.unsafe_chr (v land 0xFF))

let put16 buf off v =
  put8 buf off (v lsr 8);
  put8 buf (off + 1) v

let put32 buf off v =
  put16 buf off (v lsr 16);
  put16 buf (off + 2) v

let put64 buf off v =
  (* OCaml ints are 63-bit; the top byte carries the sign extension. *)
  put8 buf off (v asr 56);
  put8 buf (off + 1) (v asr 48);
  put8 buf (off + 2) (v asr 40);
  put8 buf (off + 3) (v asr 32);
  put32 buf (off + 4) v

let record kind ~a ~b ~c ~d =
  if !enabled_flag then begin
    let r = Domain.DLS.get ring_key in
    let off = r.r_next mod ring_slots * slot_bytes in
    let buf = r.r_buf in
    put8 buf off kind;
    put8 buf (off + 1) a;
    put16 buf (off + 2) b;
    put32 buf (off + 4) c;
    put64 buf (off + 8) d;
    put64 buf (off + 16) (now_us ());
    r.r_next <- r.r_next + 1
  end

let recorded () = (Domain.DLS.get ring_key).r_next

(* --- dumping ---------------------------------------------------------- *)

(* Frame kinds inside a BGRF1 file. *)
let fr_header = 0x01
let fr_ring = 0x02

let header_payload ~reason =
  let b = Buffer.create (32 + String.length reason) in
  Buffer.add_uint8 b fr_header;
  Buffer.add_uint8 b 1 (* codec version *);
  Frame.add_u32 b (Unix.getpid ());
  Buffer.add_int64_be b (Int64.bits_of_float (epoch_s ()));
  Frame.add_lpstr b reason;
  Buffer.contents b

let ring_payload r =
  (* Copy the arena first: the owner domain may still be writing.  A
     slot torn by that race decodes to a nonsense event, it cannot
     damage the framing. *)
  let total = r.r_next in
  let retained = min total ring_slots in
  let b = Buffer.create ((retained * slot_bytes) + 32) in
  Buffer.add_uint8 b fr_ring;
  Frame.add_u32 b r.r_domain;
  Buffer.add_int64_be b (Int64.of_int total);
  Frame.add_u32 b retained;
  (* Oldest first: when the ring has wrapped the oldest slot is the one
     [r_next] would overwrite next. *)
  let first = if total <= ring_slots then 0 else total mod ring_slots in
  for i = 0 to retained - 1 do
    let slot = (first + i) mod ring_slots in
    Buffer.add_subbytes b r.r_buf (slot * slot_bytes) slot_bytes
  done;
  Buffer.contents b

let dump_string ~reason =
  let rings = List.rev (Atomic.get registry) in
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  Frame.add b (header_payload ~reason);
  List.iter (fun r -> Frame.add b (ring_payload r)) rings;
  Buffer.contents b

let dump_file ?(trigger = 4) ~reason path =
  record k_dump ~a:trigger ~b:0 ~c:0 ~d:0;
  match
    let image = dump_string ~reason in
    try Obs.write_file_atomic path image
    with _ ->
      (* Fall back to a direct write: on a dying process a dump with a
         torn tail still beats no dump. *)
      let oc = open_out_bin path in
      output_string oc image;
      close_out oc
  with
  | () -> true
  | exception _ -> false

let install_sigquit_dump ~path ?after () =
  match
    Sys.set_signal Sys.sigquit
      (Sys.Signal_handle
         (fun _ ->
           try
             let p = path () in
             if dump_file ~trigger:1 ~reason:"sigquit" p then
               match after with Some f -> f p | None -> ()
           with _ -> ()))
  with
  | () -> ()
  | exception _ -> () (* some environments refuse handler installs *)

(* --- reading ---------------------------------------------------------- *)

type event = { e_kind : int; e_a : int; e_b : int; e_c : int; e_d : int; e_t_us : int }
type ring = { rg_domain : int; rg_total : int; rg_events : event list }

type dump = {
  f_pid : int;
  f_reason : string;
  f_epoch_s : float;
  f_rings : ring list;
  f_torn : bool;
  f_warnings : string list;
}

let decode_event s pos =
  { e_kind = Char.code s.[pos];
    e_a = Char.code s.[pos + 1];
    e_b = String.get_uint16_be s (pos + 2);
    e_c = Frame.get_u32 s (pos + 4);
    e_d = Int64.to_int (String.get_int64_be s (pos + 8));
    e_t_us = Int64.to_int (String.get_int64_be s (pos + 16)) }

let malformed m = raise (Frame.Malformed m)

(* One frame of a dump, decoded from the payload at [pos]. *)
type frame = Header of int * float * string | Ring of ring | Unknown_tag of int

let decode_frame s pos len =
  let tag = Char.code s.[pos] in
  if tag = fr_header then begin
    if len < 18 then malformed "header frame too short";
    let version = Char.code s.[pos + 1] in
    if version <> 1 then malformed (Printf.sprintf "unknown codec version %d" version);
    if len <> 18 + Frame.get_u32 s (pos + 14) then malformed "header frame length mismatch";
    Header
      ( Frame.get_u32 s (pos + 2),
        Int64.float_of_bits (String.get_int64_be s (pos + 6)),
        String.sub s (pos + 18) (len - 18) )
  end
  else if tag = fr_ring then begin
    if len < 17 then malformed "ring frame too short";
    let n = Frame.get_u32 s (pos + 13) in
    if len <> 17 + (n * slot_bytes) then malformed "ring frame length mismatch";
    Ring
      { rg_domain = Frame.get_u32 s (pos + 1);
        rg_total = Int64.to_int (String.get_int64_be s (pos + 5));
        rg_events = List.init n (fun i -> decode_event s (pos + 17 + (i * slot_bytes))) }
  end
  else Unknown_tag tag

(* The recorder's own rules on top of the frame salvage: the last
   intact header wins, an unknown tag is skipped with a warning, and a
   dump without a header is an error. *)
let of_salvage ?file (r : frame Frame.salvage) =
  let header = ref None and rings = ref [] and skipped = ref [] in
  ignore
    (List.fold_left
       (fun start (fr, frame_end) ->
         (match fr with
         | Header (pid, epoch, reason) -> header := Some (pid, epoch, reason)
         | Ring rg -> rings := rg :: !rings
         | Unknown_tag tag ->
           skipped :=
             Printf.sprintf "skipping unknown frame tag 0x%02x at byte %d" tag start :: !skipped);
         frame_end)
       (String.length magic) r.Frame.records);
  match !header with
  | None ->
    Error
      (Bgr_error.make ?file ~phase:"obs" Bgr_error.Parse "flight record has no intact header frame")
  | Some (pid, epoch, reason) ->
    Ok
      { f_pid = pid;
        f_reason = reason;
        f_epoch_s = epoch;
        f_rings = List.rev !rings;
        f_torn = r.torn;
        f_warnings = List.rev_append !skipped r.warnings }

let read_string ?file s =
  Result.bind (Frame.read_string format ?file decode_frame s) (of_salvage ?file)

let read ~path = Result.bind (Frame.read format ~path decode_frame) (of_salvage ~file:path)
