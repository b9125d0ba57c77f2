type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- rendering ------------------------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let num_to_string v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.12g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

(* JSON has no encoding for nan/inf; they render as null.  [num]
   performs the same mapping at construction time so summaries built
   from constraint-free runs (margin = infinity) stay representable. *)
let num v = if Float.is_finite v then Num v else Null
let int v = Num (float_of_int v)

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num v -> Buffer.add_string b (if Float.is_finite v then num_to_string v else "null")
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | Arr vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        write b v)
      vs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        Buffer.add_string b (escape k);
        Buffer.add_string b "\":";
        write b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* --- parsing --------------------------------------------------------- *)

exception Bad of int * string

let parse s =
  let len = String.length s in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad (!pos, m))) fmt in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < len && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos < len && s.[!pos] = c then incr pos
    else fail "expected %C" c
  in
  let literal word v =
    if !pos + String.length word <= len && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "unexpected token"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= len then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          if !pos >= len then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            (* exactly four hex digits: [int_of_string] alone would also
               take '_' separators *)
            let hex4 at =
              let h = String.sub s at (min 4 (len - at)) in
              let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
              if String.length h = 4 && String.for_all is_hex h then int_of_string ("0x" ^ h)
              else fail "bad \\u escape %S" h
            in
            let cp = hex4 (!pos + 1) in
            pos := !pos + 4;
            let within lo hi c = c >= lo && c <= hi in
            let cp =
              if within 0xD800 0xDBFF cp && !pos + 2 < len && s.[!pos + 1] = '\\'
                 && s.[!pos + 2] = 'u'
              then begin
                let low = hex4 (!pos + 3) in
                if not (within 0xDC00 0xDFFF low) then fail "unpaired surrogate \\u%04x" cp;
                pos := !pos + 6;
                0x10000 + ((cp - 0xD800) lsl 10) + (low - 0xDC00)
              end
              else cp
            in
            if within 0xD800 0xDFFF cp then fail "unpaired surrogate \\u%04x" cp;
            Buffer.add_utf_8_uchar b (Uchar.of_int cp)
          | c -> fail "bad escape \\%c" c);
          incr pos;
          loop ()
        | c when Char.code c < 0x20 -> fail "raw control character %C in a string" c
        | c ->
          Buffer.add_char b c;
          incr pos;
          loop ()
    in
    loop ();
    Buffer.contents b
  in
  (* RFC 8259: -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
     — no leading zeros, no bare '.', no trailing '.'. *)
  let parse_number () =
    let start = !pos in
    let is_digit () = !pos < len && match s.[!pos] with '0' .. '9' -> true | _ -> false in
    let skip c = if !pos < len && s.[!pos] = c then (incr pos; true) else false in
    let digits () =
      if not (is_digit ()) then fail "bad number: digit expected";
      while is_digit () do incr pos done
    in
    ignore (skip '-');
    if not (skip '0') then digits ();
    if skip '.' then digits ();
    if skip 'e' || skip 'E' then begin
      ignore (skip '+' || skip '-');
      digits ()
    end;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> Num v
    | None -> fail "bad number %S" (String.sub s start (!pos - start))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin incr pos; Obj [] end
      else begin
        let kvs = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          kvs := (k, v) :: !kvs;
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; members ()
          | Some '}' -> incr pos
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !kvs)
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin incr pos; Arr [] end
      else begin
        let vs = ref [] in
        let rec elements () =
          let v = parse_value () in
          vs := v :: !vs;
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; elements ()
          | Some ']' -> incr pos
          | _ -> fail "expected ',' or ']'"
        in
        elements ();
        Arr (List.rev !vs)
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail "unexpected character %C" c
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then fail "trailing garbage after the JSON value";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) -> Error (Printf.sprintf "JSON error at byte %d: %s" at msg)

(* --- accessors ------------------------------------------------------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_float = function
  | Num v -> Some v
  | Null -> Some nan  (* null is how non-finite numbers round-trip *)
  | _ -> None

let to_int = function Num v when Float.is_integer v -> Some (int_of_float v) | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr vs -> Some vs | _ -> None
let to_obj = function Obj kvs -> Some kvs | _ -> None
