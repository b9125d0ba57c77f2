exception Parse_error of { line : int; message : string }

let fail ~line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

let strip_comment s = match String.index_opt s '#' with None -> s | Some i -> String.sub s 0 i

let strip_cr s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

let tokenize text =
  Fault.check ~phase:"parse" "io.parse";
  String.split_on_char '\n' text
  |> List.mapi (fun i raw ->
         let body = strip_comment (strip_cr raw) in
         let tokens =
           String.split_on_char ' ' body
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun t -> t <> "")
         in
         (i + 1, tokens))
  |> List.filter (fun (_, tokens) -> tokens <> [])

let int_field ~line ~what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail ~line "expected an integer for %s, got %S" what s

let float_field ~line ~what s =
  match float_of_string_opt s with
  | Some v when Float.is_finite v -> v
  | Some _ -> fail ~line "expected a finite number for %s, got %S" what s
  | None -> fail ~line "expected a number for %s, got %S" what s

let float_repr v =
  let rec go digits =
    let s = Printf.sprintf "%.*g" digits v in
    if digits >= 17 || float_of_string s = v then s else go (digits + 1)
  in
  go 12

let read_all path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let protect ?file f =
  let err e = Error (match file with None -> e | Some f -> Bgr_error.with_file f e) in
  match f () with
  | v -> Ok v
  | exception Parse_error { line; message } ->
    err (Bgr_error.make ~line Bgr_error.Parse "%s" message)
  | exception Netlist.Invalid m -> err (Bgr_error.make ~line:0 Bgr_error.Validate "%s" m)
  | exception Cell.Malformed m -> err (Bgr_error.make ~line:0 Bgr_error.Validate "%s" m)
  | exception Floorplan.Overlap e -> err (if e.Bgr_error.line = None then Bgr_error.{ e with line = Some 0 } else e)
  | exception Path_constraint.Bad_constraint m ->
    err (Bgr_error.make ~line:0 Bgr_error.Validate "%s" m)
  | exception Routing_graph.Unroutable m ->
    err (Bgr_error.make ~line:0 Bgr_error.Unroutable "%s" m)
  | exception Sys_error m -> err (Bgr_error.make Bgr_error.Io_error "%s" m)
  | exception Bgr_error.Error e -> err e
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception e ->
    err (Bgr_error.make ~line:0 Bgr_error.Internal "uncaught: %s" (Printexc.to_string e))
