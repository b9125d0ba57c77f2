let node_name netlist = function
  | Delay_graph.Out p | Delay_graph.Seq_in p ->
    Printf.sprintf "%s.%s" (Netlist.instance netlist p.Netlist.inst).Netlist.inst_name p.Netlist.term
  | Delay_graph.Port_in q | Delay_graph.Port_out q ->
    "port:" ^ (Netlist.port netlist q).Netlist.port_name

let to_string netlist constraints =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# bgr constraints v1";
  List.iter
    (fun (pc : Path_constraint.t) ->
      line "constraint %s limit %s" pc.Path_constraint.cname
        (Lineio.float_repr pc.Path_constraint.limit_ps);
      List.iter (fun n -> line "source %s" (node_name netlist n)) pc.Path_constraint.sources;
      List.iter (fun n -> line "sink %s" (node_name netlist n)) pc.Path_constraint.sinks)
    constraints;
  Buffer.contents buf

let write netlist constraints ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string netlist constraints))

(* Resolve a terminal reference to a delay-graph node, using the
   netlist for directions and port roles. *)
let resolve_node netlist ~line ~role token =
  if String.length token > 5 && String.sub token 0 5 = "port:" then begin
    let name = String.sub token 5 (String.length token - 5) in
    let found = ref None in
    Array.iter
      (fun (p : Netlist.port) -> if p.Netlist.port_name = name then found := Some p.Netlist.port_id)
      (Netlist.ports netlist);
    match !found with
    | None -> Lineio.fail ~line "unknown port %s" name
    | Some q ->
      (* A port's role follows its use on the attached net. *)
      let net = Netlist.net netlist (Netlist.net_of_port netlist q) in
      let drives = net.Netlist.driver = Netlist.Port q in
      (match (role, drives) with
      | `Source, true -> Delay_graph.Port_in q
      | `Sink, false -> Delay_graph.Port_out q
      | `Source, false -> Lineio.fail ~line "port %s is an output, not a path source" name
      | `Sink, true -> Lineio.fail ~line "port %s is an input, not a path sink" name)
  end
  else begin
    match String.index_opt token '.' with
    | None -> Lineio.fail ~line "terminal %S is neither inst.term nor port:NAME" token
    | Some i ->
      let inst_name = String.sub token 0 i in
      let term = String.sub token (i + 1) (String.length token - i - 1) in
      let found = ref None in
      Array.iter
        (fun (inst : Netlist.instance) ->
          if inst.Netlist.inst_name = inst_name then found := Some inst)
        (Netlist.instances netlist);
      (match !found with
      | None -> Lineio.fail ~line "unknown instance %s" inst_name
      | Some inst ->
        let master = inst.Netlist.master in
        let t =
          match Cell.terminal master term with
          | t -> t
          | exception Not_found -> Lineio.fail ~line "instance %s has no terminal %s" inst_name term
        in
        let pin = { Netlist.inst = inst.Netlist.inst_id; term } in
        (match (role, t.Cell.dir) with
        | `Source, Cell.Output -> Delay_graph.Out pin
        | `Sink, Cell.Input when Cell.is_sequential_input master term -> Delay_graph.Seq_in pin
        | `Sink, Cell.Input ->
          Lineio.fail ~line "%s.%s is a combinational input; paths end at sequential inputs" inst_name
            term
        | `Source, Cell.Input -> Lineio.fail ~line "%s.%s is an input, not a path source" inst_name term
        | `Sink, Cell.Output -> Lineio.fail ~line "%s.%s is an output, not a path sink" inst_name term))
  end

type partial = {
  p_line : int;
  p_name : string;
  p_limit : float;
  mutable p_sources : Delay_graph.node list;
  mutable p_sinks : Delay_graph.node list;
}

let of_string ~netlist text =
  let finished = ref [] in
  let current = ref None in
  let close () =
    match !current with
    | None -> ()
    | Some p ->
      (try
         finished :=
           Path_constraint.make ~name:p.p_name ~sources:(List.rev p.p_sources)
             ~sinks:(List.rev p.p_sinks) ~limit_ps:p.p_limit
           :: !finished
       with Path_constraint.Bad_constraint m -> Lineio.fail ~line:p.p_line "%s" m);
      current := None
  in
  let on_line (line, tokens) =
    match tokens with
    | [ "constraint"; name; "limit"; l ] ->
      close ();
      current :=
        Some
          { p_line = line;
            p_name = name;
            p_limit = Lineio.float_field ~line ~what:"limit" l;
            p_sources = [];
            p_sinks = [] }
    | [ "source"; t ] -> (
      match !current with
      | None -> Lineio.fail ~line "source before any constraint line"
      | Some p -> p.p_sources <- resolve_node netlist ~line ~role:`Source t :: p.p_sources)
    | [ "sink"; t ] -> (
      match !current with
      | None -> Lineio.fail ~line "sink before any constraint line"
      | Some p -> p.p_sinks <- resolve_node netlist ~line ~role:`Sink t :: p.p_sinks)
    | t :: _ -> Lineio.fail ~line "unknown directive %S" t
    | [] -> ()
  in
  List.iter on_line (Lineio.tokenize text);
  close ();
  List.rev !finished

let read ~netlist ~path = of_string ~netlist (Lineio.read_all path)

let of_string_result ?file ~netlist text =
  Lineio.protect ?file (fun () -> of_string ~netlist text)

let read_result ~netlist ~path =
  Lineio.protect ~file:path (fun () -> of_string ~netlist (Lineio.read_all path))
