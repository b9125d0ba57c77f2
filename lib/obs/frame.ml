type format = { magic : string; noun : string; phase : string; max_len : int }

exception Short
exception Malformed of string

let add_u32 b v = Buffer.add_int32_be b (Int32.of_int v)

let get_u32 s pos =
  if pos < 0 || pos + 4 > String.length s then raise Short;
  Int32.to_int (String.get_int32_be s pos) land 0xFFFFFFFF

let add_lpstr b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let get_lpstr s pos =
  let n = get_u32 s pos in
  if n > String.length s - pos - 4 then raise Short;
  (String.sub s (pos + 4) n, pos + 4 + n)

let add b payload =
  add_u32 b (String.length payload);
  Buffer.add_string b payload;
  add_u32 b (Crc32.string payload)

let encode payload =
  let b = Buffer.create (String.length payload + 8) in
  add b payload;
  Buffer.contents b

type extract = Need of int | Frame of string * int | Bad of Bgr_error.t

let extract fmt s ~pos =
  let avail = String.length s - pos in
  if avail < 4 then Need (4 - avail)
  else begin
    let len = get_u32 s pos in
    if len > fmt.max_len then
      Bad
        (Bgr_error.make ~phase:fmt.phase Bgr_error.Parse
           "frame declares a %d-byte payload; the protocol caps payloads at %d" len fmt.max_len)
    else if avail < 4 + len + 4 then Need (4 + len + 4 - avail)
    else begin
      let crc = get_u32 s (pos + 4 + len) and computed = Crc32.update 0 s (pos + 4) len in
      if crc <> computed then
        Bad
          (Bgr_error.make ~phase:fmt.phase Bgr_error.Parse
             "frame CRC mismatch (recorded %08x, computed %08x)" crc computed)
      else Frame (String.sub s (pos + 4) len, 4 + len + 4)
    end
  end

type 'a salvage = {
  records : ('a * int) list;
  valid_bytes : int;
  torn : bool;
  warnings : string list;
}

(* A damaged or incomplete {e final} frame is a torn tail: the writer
   died mid-append, so the frame is dropped with a warning.  Damage
   anywhere before the final frame cannot come from an append-only
   writer dying once, so it is a structured [Parse] error. *)
let read_string fmt ?file decode s =
  let len = String.length s and header = String.length fmt.magic in
  let parse_error m = Error (Bgr_error.make ?file ~phase:fmt.phase Bgr_error.Parse "%s" m) in
  if len < header || String.sub s 0 header <> fmt.magic then parse_error ("not a bgr " ^ fmt.noun)
  else begin
    let rec go acc p =
      let ok ~torn warnings = Ok { records = List.rev acc; valid_bytes = p; torn; warnings } in
      let torn why =
        ok ~torn:true [ Printf.sprintf "%s tail truncated at byte %d (%s)" fmt.noun p why ]
      in
      let corrupt why = parse_error (Printf.sprintf "%s corrupt at byte %d: %s" fmt.noun p why) in
      if p = len then ok ~torn:false []
      else if len - p < 4 then torn "partial length prefix discarded"
      else begin
        let l = get_u32 s p in
        let frame_end = p + 4 + l + 4 in
        if l < 1 || l > fmt.max_len then corrupt (Printf.sprintf "implausible record length %d" l)
        else if frame_end > len then torn "torn record discarded"
        else if Crc32.update 0 s (p + 4) l <> get_u32 s (p + 4 + l) then
          if frame_end = len then torn "bad CRC on the final record"
          else corrupt "CRC mismatch before the final record"
        else
          match decode s (p + 4) l with
          | r -> go ((r, frame_end) :: acc) frame_end
          | exception Malformed m -> corrupt m
          | exception Short -> corrupt "truncated record payload"
      end
    in
    go [] header
  end

let read fmt ~path decode =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> read_string fmt ~file:path decode s
  | exception Sys_error msg ->
    Error (Bgr_error.make ~file:path ~phase:fmt.phase Bgr_error.Io_error "%s" msg)
