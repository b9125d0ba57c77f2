(* The shared CRC frame: its primitives, the file salvage rule and the
   stream extractor, then mutation fuzzing of every reader built on it
   (journal, quality log, flight record, daemon socket, worker pipe),
   seeded from the golden fixtures of test/corpus/frames and the
   malformed-frame corpus of test/corpus/serve.  Every mutant must
   decode or fail with a structured [Parse] error; nothing may raise. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_fmt = { Frame.magic = "TEST1\n"; noun = "test log"; phase = "test"; max_len = 64 }

let parse_error = function
  | Error e -> e.Bgr_error.code = Bgr_error.Parse
  | Ok _ -> false

(* --- primitives -------------------------------------------------------- *)

let test_primitives () =
  let b = Buffer.create 16 in
  Frame.add_u32 b 0xDEADBEEF;
  Frame.add_u32 b (-1);
  Frame.add_lpstr b "abc";
  let s = Buffer.contents b in
  checki "u32 is unsigned" 0xDEADBEEF (Frame.get_u32 s 0);
  checki "the low 32 bits" 0xFFFFFFFF (Frame.get_u32 s 4);
  checkb "lpstr" true (Frame.get_lpstr s 8 = ("abc", 15));
  checkb "u32 past the end is Short" true
    (match Frame.get_u32 s 12 with _ -> false | exception Frame.Short -> true);
  checkb "lpstr running past the end is Short" true
    (match Frame.get_lpstr (String.sub s 0 14) 8 with _ -> false | exception Frame.Short -> true);
  let f = Frame.encode "payload" in
  checki "frame = length + payload + crc" (4 + 7 + 4) (String.length f);
  checki "length prefix" 7 (Frame.get_u32 f 0);
  checki "crc trailer" (Crc32.string "payload") (Frame.get_u32 f 11);
  let b = Buffer.create 16 in
  Frame.add b "payload";
  checkb "add = encode" true (Buffer.contents b = f)

let test_extract () =
  let f = Frame.encode "hello" in
  for i = 0 to String.length f - 1 do
    match Frame.extract test_fmt (String.sub f 0 i) ~pos:0 with
    | Frame.Need n ->
      (* the length prefix first, then the rest of the frame *)
      checki "need counts the missing bytes" (if i < 4 then 4 - i else String.length f - i) n
    | _ -> Alcotest.failf "prefix of %d bytes must need more" i
  done;
  (match Frame.extract test_fmt (f ^ f) ~pos:(String.length f) with
  | Frame.Frame (p, used) -> checkb "second frame" true (p = "hello" && used = String.length f)
  | _ -> Alcotest.fail "second frame");
  (match Frame.extract test_fmt (Frame.encode "") ~pos:0 with
  | Frame.Frame ("", 8) -> ()
  | _ -> Alcotest.fail "a zero-length payload is a valid stream frame");
  (match Frame.extract test_fmt (Frame.encode (String.make 65 'x')) ~pos:0 with
  | Frame.Bad e ->
    checkb "over the cap: Parse in the format's phase" true (e.Bgr_error.phase = Some "test")
  | _ -> Alcotest.fail "over the cap");
  let bad = Bytes.of_string f in
  Bytes.set bad 5 'j';
  match Frame.extract test_fmt (Bytes.to_string bad) ~pos:0 with
  | Frame.Bad e -> checkb "crc damage is Parse" true (e.Bgr_error.code = Bgr_error.Parse)
  | _ -> Alcotest.fail "crc damage"

let read s = Frame.read_string test_fmt (fun s pos len -> String.sub s pos len) s

let test_salvage_rule () =
  let a = Frame.encode "first" and b = Frame.encode "second" in
  let log = test_fmt.Frame.magic ^ a ^ b in
  (match read log with
  | Ok r ->
    checkb "records with frame ends" true
      (r.Frame.records = [ ("first", 6 + String.length a); ("second", String.length log) ]);
    checkb "intact" true ((not r.Frame.torn) && r.Frame.warnings = [])
  | Error e -> Alcotest.failf "read: %s" (Bgr_error.to_string e));
  let flip s i = String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s in
  (match read (flip log (String.length log - 6)) with
  | Ok r ->
    checkb "bad CRC on the final frame is a torn tail" true
      (r.Frame.torn && List.map fst r.Frame.records = [ "first" ]
      && r.Frame.valid_bytes = 6 + String.length a
      && List.length r.Frame.warnings = 1)
  | Error e -> Alcotest.failf "torn tail: %s" (Bgr_error.to_string e));
  checkb "damage before the final frame is Parse" true (parse_error (read (flip log 12)));
  checkb "a zero-length record is Parse" true
    (parse_error (read (test_fmt.Frame.magic ^ Frame.encode "" ^ a)));
  checkb "a length above max_len is Parse" true
    (parse_error (read (test_fmt.Frame.magic ^ Frame.encode (String.make 65 'x'))));
  checkb "bad magic is Parse" true (parse_error (read ("TEST2\n" ^ a)));
  let with_codec decode = Frame.read_string test_fmt decode (test_fmt.Frame.magic ^ a) in
  checkb "Malformed from the codec is Parse" true
    (parse_error (with_codec (fun _ _ _ -> raise (Frame.Malformed "no"))));
  checkb "Short from the codec is Parse" true
    (parse_error (with_codec (fun s pos _ -> Frame.get_u32 s (pos + 8))))

(* --- the readers under test -------------------------------------------- *)

(* A file format's reader, reduced to its records (marshalled, so nan
   fields compare by bit pattern) and its torn flag. *)
let marshal v = Marshal.to_string v [ Marshal.No_sharing ]

let read_journal s =
  Result.map (fun r -> (List.map (fun (x, _) -> marshal x) r.Journal.records, r.Journal.torn))
    (Journal.read_string s)

let read_qlog s =
  Result.map (fun r -> (List.map marshal r.Qlog.records, r.Qlog.torn)) (Qlog.read_string s)

(* The header counts as the dump's first record, so records and frames
   line up. *)
let read_flight s =
  Result.map
    (fun d ->
      ( marshal (d.Flight.f_reason, d.Flight.f_epoch_s) :: List.map marshal d.Flight.f_rings,
        d.Flight.f_torn ))
    (Flight.read_string s)

(* A stream's reader: extract frames until the bytes run out or a frame
   is bad, decoding each payload.  Returns the payloads and whether the
   stream stopped mid-frame. *)
let read_stream decode s =
  let rec go pos acc =
    match Wire.extract_frame s ~pos with
    | Wire.Frame (p, used) ->
      decode p;
      go (pos + used) (p :: acc)
    | Wire.Need _ -> (List.rev acc, pos < String.length s)
    | Wire.Bad e ->
      if e.Bgr_error.code <> Bgr_error.Parse then Alcotest.fail "extractor error is not Parse";
      (List.rev acc, true)
  in
  go 0 []

let structured = function
  | Ok _ -> ()
  | Error e ->
    if e.Bgr_error.code <> Bgr_error.Parse then Alcotest.fail "decoder error is not Parse"

let decode_serve p =
  structured (Wire.decode_request p);
  structured (Wire.decode_reply p)

let decode_worker p = structured (Worker.decode_event p)

type seed =
  | File of string * (string -> (string list * bool, Bgr_error.t) result)
  | Stream of string * (string -> unit)  (** frames only: the magic is exchanged apart *)

let strip_magic s = String.sub s 6 (String.length s - 6)

let serve_corpus_dir =
  if Sys.file_exists "corpus/serve" then "corpus/serve" else "test/corpus/serve"

let read_corpus f =
  In_channel.with_open_bin (Filename.concat serve_corpus_dir f) In_channel.input_all

let seeds =
  lazy
    (let fx = Util.read_fixture in
     [ File (fx "journal.bgrj", read_journal);
       File (fx "quality.bgrq", read_qlog);
       File (fx "flight.bgrf", read_flight);
       Stream (strip_magic (fx "serve_request.bgrs"), decode_serve);
       Stream (strip_magic (fx "serve_reply.bgrs"), decode_serve);
       Stream (strip_magic (fx "worker.bgrw"), decode_worker) ]
     @ (Sys.readdir serve_corpus_dir |> Array.to_list |> List.sort compare
       |> List.map (fun f -> Stream (read_corpus f, decode_serve))))

(* Frame start offsets of an intact seed, plus its end. *)
let boundaries ~from s =
  let rec go pos acc =
    if pos + 4 > String.length s then List.rev acc
    else
      let next = pos + 4 + Frame.get_u32 s pos + 4 in
      if next > String.length s then List.rev acc else go next (next :: acc)
  in
  go from [ from ]

let rec take n = function x :: l when n > 0 -> x :: take (n - 1) l | _ -> []

(* --- truncation at every offset ---------------------------------------- *)

let test_truncation () =
  List.iter
    (function
      | File (s, read) ->
        let full, _ = Result.get_ok (read s) in
        let bounds = boundaries ~from:6 s in
        checki "the seed frames cover it" (String.length s) (List.hd (List.rev bounds));
        for cut = 0 to String.length s do
          let complete = List.length (List.filter (fun b -> b <= cut) bounds) - 1 in
          match read (String.sub s 0 cut) with
          | exception e -> Alcotest.failf "cut %d raised %s" cut (Printexc.to_string e)
          | Error e ->
            (* only a missing magic, or a flight record without its header *)
            checkb (Printf.sprintf "cut %d: structured" cut) true
              (e.Bgr_error.code = Bgr_error.Parse && (cut < 6 || complete = 0))
          | Ok (records, torn) ->
            checkb (Printf.sprintf "cut %d: a prefix of the records" cut) true
              (records = take complete full);
            checkb (Printf.sprintf "cut %d: torn iff inside a frame" cut)
              (not (List.mem cut bounds)) torn
        done
      | Stream (s, decode) ->
        let full, _ = read_stream decode s in
        (* the ends of the frames the whole seed yields (corpus seeds
           may stop at a bad frame) *)
        let bounds =
          List.fold_left (fun acc p -> (List.hd acc + String.length p + 8) :: acc) [ 0 ] full
        in
        for cut = 0 to String.length s do
          let payloads, mid_frame = read_stream decode (String.sub s 0 cut) in
          checkb (Printf.sprintf "cut %d: a prefix of the frames" cut) true
            (payloads = take (List.length payloads) full);
          if List.mem cut bounds then
            checkb (Printf.sprintf "cut %d: on a boundary" cut) false mid_frame
        done)
    (Lazy.force seeds)

(* --- random mutations ---------------------------------------------------- *)

type mutation =
  | Flip of (int * int) list  (** offset (mod length), xor mask *)
  | Length of int * int  (** frame index (mod frames), new length *)
  | Payload of int * int * int  (** frame index, edit kind, argument; CRC recomputed *)

let print_mutation (seed, m) =
  Printf.sprintf "seed %d: %s" seed
    (match m with
    | Flip l ->
      "flip " ^ String.concat "," (List.map (fun (o, x) -> Printf.sprintf "%d^%02x" o x) l)
    | Length (i, l) -> Printf.sprintf "frame %d length := %d" i l
    | Payload (i, k, a) -> Printf.sprintf "frame %d payload edit %d (%d)" i k a)

let gen_mutation =
  QCheck.Gen.(
    pair (int_bound 1000)
      (frequency
         [ ( 3,
             map (fun l -> Flip l)
               (list_size (int_range 1 4) (pair (int_bound 100_000) (int_range 1 255))) );
           ( 2,
             map2
               (fun i l -> Length (i, l))
               (int_bound 100)
               (oneof
                  [ (* around each format's bound, and the journal's fixed size *)
                    oneofl
                      [ 0; 1; 2; 25; 26; 27; 0xFFFF; 0x10000; 0xFFFFF; 0x100000; 0xFFFFFF;
                        0x1000000; 16 * 1024 * 1024; (16 * 1024 * 1024) + 1; 0xFFFFFFFF ];
                    int_bound 0xFFFFFFF ]) );
           ( 3,
             map3
               (fun i k a -> Payload (i, k, a))
               (int_bound 100) (int_bound 3) (int_bound 0x3FFFFFFF) ) ]))

let set_u32 b off v =
  if off >= 0 && off + 4 <= Bytes.length b then Bytes.set_int32_be b off (Int32.of_int v)

let mutate s ~from m =
  let frames = Array.of_list (boundaries ~from s) in
  let n_frames = Array.length frames - 1 in
  match m with
  | Flip l ->
    let b = Bytes.of_string s in
    if Bytes.length b > 0 then
      List.iter
        (fun (o, x) ->
          let o = o mod Bytes.length b in
          Bytes.set b o (Char.chr (Char.code (Bytes.get b o) lxor x)))
        l;
    Bytes.to_string b
  | Length (i, l) when n_frames > 0 ->
    let b = Bytes.of_string s in
    set_u32 b frames.(i mod n_frames) l;
    Bytes.to_string b
  | Payload (i, kind, a) when n_frames > 0 ->
    (* Edit one payload and re-frame it with a valid CRC, so the edit
       reaches the payload codec instead of the CRC check. *)
    let i = i mod n_frames in
    let start = frames.(i) and stop = frames.(i + 1) in
    let p = Bytes.of_string (String.sub s (start + 4) (stop - start - 8)) in
    let len = Bytes.length p in
    let p =
      match kind with
      | 0 when len > 0 ->
        let o = a mod len in
        Bytes.set p o (Char.chr (Char.code (Bytes.get p o) lxor (1 + (a mod 255))));
        Bytes.to_string p
      | 1 when len > 0 ->
        set_u32 p (a mod len) (a lxor (a lsl 7));
        Bytes.to_string p
      | 2 -> Bytes.sub_string p 0 (a mod (len + 1))
      | _ -> Bytes.to_string p ^ String.make (1 + (a mod 9)) (Char.chr (a land 0xFF))
    in
    String.sub s 0 start ^ Frame.encode p ^ String.sub s stop (String.length s - stop)
  | Length _ | Payload _ -> s

let prop_mutants_never_raise =
  QCheck.Test.make ~name:"mutated frames decode or fail structurally" ~count:3000
    (QCheck.make ~print:print_mutation gen_mutation) (fun (k, m) ->
      let seeds = Lazy.force seeds in
      match List.nth seeds (k mod List.length seeds) with
      | File (s, read) -> (
        match read (mutate s ~from:6 m) with
        | Ok _ -> true
        | Error e -> e.Bgr_error.code = Bgr_error.Parse
        | exception e -> QCheck.Test.fail_reportf "file reader raised %s" (Printexc.to_string e))
      | Stream (s, decode) -> (
        match read_stream decode (mutate s ~from:0 m) with
        | _ -> true
        | exception e -> QCheck.Test.fail_reportf "stream reader raised %s" (Printexc.to_string e)))

let () =
  Alcotest.run "frame"
    [ ( "frame",
        [ Alcotest.test_case "u32, lpstr and the encoder" `Quick test_primitives;
          Alcotest.test_case "stream extraction" `Quick test_extract;
          Alcotest.test_case "file salvage rule" `Quick test_salvage_rule ] );
      ( "fuzz",
        [ Alcotest.test_case "truncation at every offset" `Quick test_truncation;
          QCheck_alcotest.to_alcotest prop_mutants_never_raise ] ) ]
