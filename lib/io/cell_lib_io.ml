let access_name = function
  | Cell.Top_only -> "top"
  | Cell.Bottom_only -> "bottom"
  | Cell.Both_sides -> "both"

let kind_name = function
  | Cell.Combinational -> "comb"
  | Cell.Flipflop -> "ff"
  | Cell.Feed_through -> "feed"

let to_string lib =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# bgr library v1";
  line "name %s" (Cell_lib.name lib);
  List.iter
    (fun (c : Cell.t) ->
      let seq =
        if c.Cell.sequential_inputs = [] then ""
        else " seq " ^ String.concat " " c.Cell.sequential_inputs
      in
      line "cell %s %s width %d%s" c.Cell.name (kind_name c.Cell.kind) c.Cell.width seq;
      Array.iter
        (fun (t : Cell.terminal) ->
          match t.Cell.dir with
          | Cell.Input ->
            line "in %s fanin %s offset %d access %s" t.Cell.t_name
              (Lineio.float_repr t.Cell.fanin_ff) t.Cell.offset (access_name t.Cell.access)
          | Cell.Output ->
            line "out %s tf %s td %s offset %d access %s" t.Cell.t_name
              (Lineio.float_repr t.Cell.tf_ps_per_ff) (Lineio.float_repr t.Cell.td_ps_per_ff)
              t.Cell.offset (access_name t.Cell.access))
        c.Cell.terminals;
      List.iter
        (fun (a : Cell.arc) ->
          line "arc %s %s %s" a.Cell.from_input a.Cell.to_output
            (Lineio.float_repr a.Cell.intrinsic_ps))
        c.Cell.arcs)
    (Cell_lib.cells lib);
  Buffer.contents buf

let write lib ~path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string lib))

let parse_access ~line = function
  | "top" -> Cell.Top_only
  | "bottom" -> Cell.Bottom_only
  | "both" -> Cell.Both_sides
  | s -> Lineio.fail ~line "access must be top|bottom|both, got %S" s

let parse_kind ~line = function
  | "comb" -> Cell.Combinational
  | "ff" -> Cell.Flipflop
  | "feed" -> Cell.Feed_through
  | s -> Lineio.fail ~line "cell kind must be comb|ff|feed, got %S" s

type partial = {
  p_line : int;
  p_name : string;
  p_kind : Cell.kind;
  p_width : int;
  p_seq : string list;
  mutable p_terminals : Cell.terminal list;
  mutable p_arcs : Cell.arc list;
}

let of_string text =
  let name = ref None in
  let cells = ref [] in
  let current = ref None in
  let close () =
    match !current with
    | None -> ()
    | Some p ->
      cells :=
        Cell.make ~name:p.p_name ~kind:p.p_kind ~width:p.p_width
          ~terminals:(List.rev p.p_terminals) ~arcs:(List.rev p.p_arcs)
          ~sequential_inputs:p.p_seq ()
        :: !cells;
      current := None
  in
  let with_current ~line f =
    match !current with
    | None -> Lineio.fail ~line "terminal/arc line before any cell line"
    | Some p -> f p
  in
  let on_line (line, tokens) =
    match tokens with
    | [ "name"; n ] -> name := Some n
    | "cell" :: cname :: kind :: "width" :: w :: rest ->
      close ();
      let seq =
        match rest with
        | [] -> []
        | "seq" :: pins -> pins
        | t :: _ -> Lineio.fail ~line "unexpected token %S after cell width" t
      in
      current :=
        Some
          { p_line = line;
            p_name = cname;
            p_kind = parse_kind ~line kind;
            p_width = Lineio.int_field ~line ~what:"cell width" w;
            p_seq = seq;
            p_terminals = [];
            p_arcs = [] }
    | [ "in"; tname; "fanin"; f; "offset"; o; "access"; a ] ->
      with_current ~line (fun p ->
          let base =
            Cell.input_t ~name:tname
              ~fanin_ff:(Lineio.float_field ~line ~what:"fanin" f)
              ~offset:(Lineio.int_field ~line ~what:"offset" o)
          in
          p.p_terminals <- { base with Cell.access = parse_access ~line a } :: p.p_terminals)
    | [ "out"; tname; "tf"; tf; "td"; td; "offset"; o; "access"; a ] ->
      with_current ~line (fun p ->
          let base =
            Cell.output_t ~name:tname
              ~tf:(Lineio.float_field ~line ~what:"tf" tf)
              ~td:(Lineio.float_field ~line ~what:"td" td)
              ~offset:(Lineio.int_field ~line ~what:"offset" o)
          in
          p.p_terminals <- { base with Cell.access = parse_access ~line a } :: p.p_terminals)
    | [ "arc"; from_input; to_output; t0 ] ->
      with_current ~line (fun p ->
          p.p_arcs <-
            { Cell.from_input; to_output; intrinsic_ps = Lineio.float_field ~line ~what:"arc T0" t0 }
            :: p.p_arcs)
    | t :: _ -> Lineio.fail ~line "unknown directive %S" t
    | [] -> ()
  in
  List.iter on_line (Lineio.tokenize text);
  close ();
  match !name with
  | None -> Lineio.fail ~line:1 "missing library name line"
  | Some name -> Cell_lib.make ~name ~cells:(List.rev !cells)

let read path = of_string (Lineio.read_all path)

let of_string_result ?file text = Lineio.protect ?file (fun () -> of_string text)

let read_result path = Lineio.protect ~file:path (fun () -> of_string (Lineio.read_all path))
