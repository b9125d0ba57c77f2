let format =
  { Frame.magic = "BGRS1\n"; noun = "daemon message"; phase = "serve"; max_len = 16 * 1024 * 1024 }
let magic = format.Frame.magic
let max_payload = format.Frame.max_len

type request =
  | Route of {
      wait : bool;
      progress : bool;
      timing_driven : bool;
      deadline_ms : int option;
      name : string option;
      design : string;
    }
  | Resume of { wait : bool; progress : bool; job : string }
  | Analyze of { job : string }
  | Status of { job : string option }
  | Shutdown
  | Cancel of { job : string }
  | Revive of { wait : bool; force : bool; job : string }
  | Watch of { job : string }
  | Stats of { prom : bool }
  | Dump

type reply =
  | Accepted of { job : string }
  | Result of { job : string; ok : bool; json : string }
  | Rerror of { code : string; message : string }
  | Overloaded of { reason : string; depth : int; cap : int }
  | Info of { json : string }
  | Progress of { job : string; seq : int; json : string }
  | Rstats of { prom : bool; body : string }

(* --- request bodies --------------------------------------------------- *)

let op_route = 0x01
let op_resume = 0x02
let op_analyze = 0x03
let op_status = 0x04
let op_shutdown = 0x05
let op_cancel = 0x06
let op_revive = 0x07
let op_watch = 0x08
let op_stats = 0x09
let op_dump = 0x0A

let op_accepted = 0x81
let op_result = 0x82
let op_error = 0x83
let op_overloaded = 0x84
let op_info = 0x85
let op_progress = 0x86
let op_rstats = 0x87

let flag_wait = 0x01
let flag_unconstrained = 0x02
let flag_force = 0x04
let flag_progress = 0x08
let flag_prom = 0x01

let encode_request r =
  let b = Buffer.create 256 in
  (match r with
  | Route { wait; progress; timing_driven; deadline_ms; name; design } ->
    Buffer.add_char b (Char.chr op_route);
    let flags =
      (if wait then flag_wait else 0)
      lor (if timing_driven then 0 else flag_unconstrained)
      lor if progress then flag_progress else 0
    in
    Buffer.add_char b (Char.chr flags);
    Frame.add_u32 b (match deadline_ms with None -> 0 | Some ms -> max 1 ms);
    Frame.add_lpstr b (Option.value name ~default:"");
    Frame.add_lpstr b design
  | Resume { wait; progress; job } ->
    Buffer.add_char b (Char.chr op_resume);
    Buffer.add_char b
      (Char.chr ((if wait then flag_wait else 0) lor if progress then flag_progress else 0));
    Frame.add_lpstr b job
  | Analyze { job } ->
    Buffer.add_char b (Char.chr op_analyze);
    Frame.add_lpstr b job
  | Status { job } ->
    Buffer.add_char b (Char.chr op_status);
    Frame.add_lpstr b (Option.value job ~default:"")
  | Shutdown -> Buffer.add_char b (Char.chr op_shutdown)
  | Cancel { job } ->
    Buffer.add_char b (Char.chr op_cancel);
    Frame.add_lpstr b job
  | Revive { wait; force; job } ->
    Buffer.add_char b (Char.chr op_revive);
    Buffer.add_char b
      (Char.chr ((if wait then flag_wait else 0) lor if force then flag_force else 0));
    Frame.add_lpstr b job
  | Watch { job } ->
    Buffer.add_char b (Char.chr op_watch);
    Frame.add_lpstr b job
  | Stats { prom } ->
    Buffer.add_char b (Char.chr op_stats);
    Buffer.add_char b (Char.chr (if prom then flag_prom else 0))
  | Dump -> Buffer.add_char b (Char.chr op_dump));
  Frame.encode (Buffer.contents b)

let encode_reply r =
  let b = Buffer.create 256 in
  (match r with
  | Accepted { job } ->
    Buffer.add_char b (Char.chr op_accepted);
    Frame.add_lpstr b job
  | Result { job; ok; json } ->
    Buffer.add_char b (Char.chr op_result);
    Frame.add_lpstr b job;
    Buffer.add_char b (if ok then '\001' else '\000');
    Frame.add_lpstr b json
  | Rerror { code; message } ->
    Buffer.add_char b (Char.chr op_error);
    Frame.add_lpstr b code;
    Frame.add_lpstr b message
  | Overloaded { reason; depth; cap } ->
    Buffer.add_char b (Char.chr op_overloaded);
    Frame.add_lpstr b reason;
    Frame.add_u32 b depth;
    Frame.add_u32 b cap
  | Info { json } ->
    Buffer.add_char b (Char.chr op_info);
    Frame.add_lpstr b json
  | Progress { job; seq; json } ->
    Buffer.add_char b (Char.chr op_progress);
    Frame.add_lpstr b job;
    Frame.add_u32 b seq;
    Frame.add_lpstr b json
  | Rstats { prom; body } ->
    Buffer.add_char b (Char.chr op_rstats);
    Buffer.add_char b (Char.chr (if prom then flag_prom else 0));
    Frame.add_lpstr b body);
  Frame.encode (Buffer.contents b)

(* --- payload decoding -------------------------------------------------- *)

let parse_error ?file fmt =
  Printf.ksprintf
    (fun m -> Error (Bgr_error.make ?file ~phase:"serve" Bgr_error.Parse "%s" m))
    fmt

let finish ?file ~what s pos v =
  if pos <> String.length s then
    parse_error ?file "%s message carries %d trailing bytes" what (String.length s - pos)
  else Ok v

let decode_request ?file s =
  if s = "" then parse_error ?file "empty request payload"
  else begin
    let op = Char.code s.[0] in
    match
      if op = op_route then begin
        if String.length s < 2 then raise Frame.Short;
        let flags = Char.code s.[1] in
        let deadline = Frame.get_u32 s 2 in
        let name, pos = Frame.get_lpstr s 6 in
        let design, pos = Frame.get_lpstr s pos in
        finish ?file ~what:"route" s pos
          (Route
             { wait = flags land flag_wait <> 0;
               progress = flags land flag_progress <> 0;
               timing_driven = flags land flag_unconstrained = 0;
               deadline_ms = (if deadline = 0 then None else Some deadline);
               name = (if name = "" then None else Some name);
               design })
      end
      else if op = op_resume then begin
        if String.length s < 2 then raise Frame.Short;
        let flags = Char.code s.[1] in
        let job, pos = Frame.get_lpstr s 2 in
        finish ?file ~what:"resume" s pos
          (Resume
             { wait = flags land flag_wait <> 0;
               progress = flags land flag_progress <> 0;
               job })
      end
      else if op = op_analyze then begin
        let job, pos = Frame.get_lpstr s 1 in
        finish ?file ~what:"analyze" s pos (Analyze { job })
      end
      else if op = op_status then begin
        let job, pos = Frame.get_lpstr s 1 in
        finish ?file ~what:"status" s pos
          (Status { job = (if job = "" then None else Some job) })
      end
      else if op = op_shutdown then finish ?file ~what:"shutdown" s 1 Shutdown
      else if op = op_cancel then begin
        let job, pos = Frame.get_lpstr s 1 in
        finish ?file ~what:"cancel" s pos (Cancel { job })
      end
      else if op = op_revive then begin
        if String.length s < 2 then raise Frame.Short;
        let flags = Char.code s.[1] in
        let job, pos = Frame.get_lpstr s 2 in
        finish ?file ~what:"revive" s pos
          (Revive
             { wait = flags land flag_wait <> 0; force = flags land flag_force <> 0; job })
      end
      else if op = op_watch then begin
        let job, pos = Frame.get_lpstr s 1 in
        finish ?file ~what:"watch" s pos (Watch { job })
      end
      else if op = op_stats then begin
        if String.length s < 2 then raise Frame.Short;
        let flags = Char.code s.[1] in
        finish ?file ~what:"stats" s 2 (Stats { prom = flags land flag_prom <> 0 })
      end
      else if op = op_dump then finish ?file ~what:"dump" s 1 Dump
      else parse_error ?file "unknown request opcode 0x%02x" op
    with
    | r -> r
    | exception Frame.Short -> parse_error ?file "request body is truncated (opcode 0x%02x)" op
  end

let decode_reply ?file s =
  if s = "" then parse_error ?file "empty reply payload"
  else begin
    let op = Char.code s.[0] in
    match
      if op = op_accepted then begin
        let job, pos = Frame.get_lpstr s 1 in
        finish ?file ~what:"accepted" s pos (Accepted { job })
      end
      else if op = op_result then begin
        let job, pos = Frame.get_lpstr s 1 in
        if pos >= String.length s then raise Frame.Short;
        let ok = s.[pos] <> '\000' in
        let json, pos = Frame.get_lpstr s (pos + 1) in
        finish ?file ~what:"result" s pos (Result { job; ok; json })
      end
      else if op = op_error then begin
        let code, pos = Frame.get_lpstr s 1 in
        let message, pos = Frame.get_lpstr s pos in
        finish ?file ~what:"error" s pos (Rerror { code; message })
      end
      else if op = op_overloaded then begin
        let reason, pos = Frame.get_lpstr s 1 in
        let depth = Frame.get_u32 s pos in
        let cap = Frame.get_u32 s (pos + 4) in
        finish ?file ~what:"overloaded" s (pos + 8) (Overloaded { reason; depth; cap })
      end
      else if op = op_info then begin
        let json, pos = Frame.get_lpstr s 1 in
        finish ?file ~what:"info" s pos (Info { json })
      end
      else if op = op_progress then begin
        let job, pos = Frame.get_lpstr s 1 in
        let seq = Frame.get_u32 s pos in
        let json, pos = Frame.get_lpstr s (pos + 4) in
        finish ?file ~what:"progress" s pos (Progress { job; seq; json })
      end
      else if op = op_rstats then begin
        if String.length s < 2 then raise Frame.Short;
        let flags = Char.code s.[1] in
        let body, pos = Frame.get_lpstr s 2 in
        finish ?file ~what:"stats" s pos (Rstats { prom = flags land flag_prom <> 0; body })
      end
      else parse_error ?file "unknown reply opcode 0x%02x" op
    with
    | r -> r
    | exception Frame.Short -> parse_error ?file "reply body is truncated (opcode 0x%02x)" op
  end

(* --- incremental frame extraction -------------------------------------- *)

type extract = Frame.extract = Need of int | Frame of string * int | Bad of Bgr_error.t

let extract_frame = Frame.extract format

let valid_job_id s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> true | _ -> false)
       s
