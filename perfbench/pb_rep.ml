(* One measured repetition of a design, run in a fresh process that
   reads only the generated bundle: the GC heap and the peak resident
   set start clean every time, whatever order the designs run in.

   Untraced, a repetition times exactly what a user waits for: set-up
   (bundle parse, [Design_check.validate], [Design_io.to_flow_input],
   [Flow.prepare]) and route ([Router.run] + [Flow.finish]).  Traced, it
   also installs the router's existing commit and checkpoint hooks to
   split the route by phase, and between [Flow.prepare] and the route
   replays [Flow.prepare]'s constituents on throwaway copies of the
   input to split the set-up by layer.  Every routed result is checked
   with [Verify.routed] once its timing is done. *)

let options = { Router.default_options with Router.domains = 1 }
let now = Unix.gettimeofday

type entry = { e_name : string; e_file : string; e_timing : bool }

let read_manifest dir =
  In_channel.with_open_bin (Filename.concat dir "manifest") In_channel.input_lines
  |> List.filter_map (fun line ->
         match String.split_on_char '\t' line with
         | [ e_name; e_file; t ] -> Some { e_name; e_file; e_timing = t = "1" }
         | _ -> None)

let write_manifest dir designs =
  Out_channel.with_open_bin (Filename.concat dir "manifest") (fun oc ->
      List.iteri
        (fun i (d : Pb_gen.design) ->
          let file = Printf.sprintf "%02d-%s.bgr" i d.Pb_gen.name in
          Out_channel.with_open_bin (Filename.concat dir file) (fun b ->
              output_string b d.Pb_gen.bundle);
          Printf.fprintf oc "%s\t%s\t%d\n" d.Pb_gen.name file (Bool.to_int d.Pb_gen.timing_driven))
        designs)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse text =
  let ok what = function
    | Ok v -> v
    | Error e -> failwith (what ^ ": " ^ Bgr_error.to_string e)
  in
  Design_io.of_string_result text |> ok "parse" |> Design_check.validate |> ok "validate"
  |> Design_io.to_flow_input

let vm_hwm_kb () =
  In_channel.with_open_bin "/proc/self/status" In_channel.input_lines
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:"VmHWM:" l then
           Scanf.sscanf_opt (String.sub l 6 (String.length l - 6)) " %d" Fun.id
         else None)
  |> Option.value ~default:0

let span ~trace ~design name f = if trace then Pb_trace.with_span ~design name f else f ()

(* [Flow.prepare]'s constituents, in its own order, on a throwaway
   input: (layout, timing, router create) seconds. *)
let prepare_split ~design ~timing_driven (input : Flow.input) =
  let step name f =
    let t0 = Pb_trace.now_us () in
    let v = f () in
    let t1 = Pb_trace.now_us () in
    ignore (Pb_trace.add ~design ~name ~start_us:t0 ~stop_us:t1 ());
    (v, (t1 -. t0) /. 1e6)
  in
  Pb_trace.with_span ~design "bench.prepare_split" @@ fun () ->
  let fp0, a = step "layout.floorplan" (fun () -> Flow.floorplan_of_input input) in
  let dg, b = step "timing.delay_graph" (fun () -> Delay_graph.build input.Flow.netlist) in
  let order, c =
    step "timing.net_order" (fun () ->
        if timing_driven && input.Flow.constraints <> [] then
          Sta.static_net_order dg input.Flow.constraints
        else List.init (Netlist.n_nets input.Flow.netlist) Fun.id)
  in
  let (fp, assignment, _), d =
    step "layout.feed_insert" (fun () -> Feed_insert.assign_with_insertion fp0 ~order)
  in
  let sta, e =
    step "timing.sta_create" (fun () ->
        if input.Flow.constraints = [] then None
        else Some (Sta.create dg input.Flow.constraints))
  in
  let _, f =
    step "core.router_create" (fun () ->
        Router.create ~options fp assignment (if timing_driven then sta else None))
  in
  (a +. d, b +. c +. e, f)

let prepare_replays = 9

(* The split of [Flow.prepare], checked against [Flow.prepare] itself:
   [prepare_replays] alternating replays of the constituents and of the
   whole call, each on a fresh throwaway input and a collected heap.  A
   single 10-100 ms interval on a shared host can be 70 % off the next
   one, so each side keeps its fastest replay.  Returns the fastest
   split (layout, timing, router create seconds) and the fastest whole
   [Flow.prepare]. *)
let replay_prepare ~design ~timing_driven text =
  let fresh () =
    let input = parse text in
    Gc.full_major ();
    input
  in
  Pb_trace.with_span ~design "bench.prepare_replay" @@ fun () ->
  let replays =
    List.init prepare_replays (fun _ ->
        let split = prepare_split ~design ~timing_driven (fresh ()) in
        let input = fresh () in
        let t0 = now () in
        ignore (Flow.prepare ~options ~timing_driven input);
        (split, now () -. t0))
  in
  let total (a, b, c) = a +. b +. c in
  ( List.fold_left (fun best (s, _) -> if total s < total best then s else best)
      (fst (List.hd replays)) replays,
    List.fold_left (fun m (_, whole) -> Float.min m whole) infinity replays )

let timing_phases = [ "recover_violations"; "improve_delay"; "final_recovery"; "final_delay" ]

let route_design ~trace ~persist_dir e text =
  let design = e.e_name and timing_driven = e.e_timing in
  let span name f = span ~trace ~design name f in
  span "design" @@ fun () ->
  let t0 = now () in
  let input = span "io.parse" (fun () -> parse text) in
  let t1 = now () in
  let prep, router =
    span "flow.prepare" (fun () -> Flow.prepare ~options ~timing_driven input)
  in
  let t2 = now () in
  let marks = ref [] and primaries = ref 0 and initial_primaries = ref 0 in
  let replayed, candidates =
    if not trace then (((0.0, 0.0, 0.0), 0.0), 0)
    else begin
      let replayed = replay_prepare ~design ~timing_driven text in
      Gc.full_major ();
      Router.set_checkpoint_hook router
        (Some (fun ~phase ~completed:_ _ -> marks := (phase, now ()) :: !marks));
      Router.set_commit_hook router
        (Some
           (fun dc ->
             incr primaries;
             if dc.Router.dc_phase = "initial_route" then incr initial_primaries));
      let nets = Netlist.n_nets (Floorplan.netlist (Router.floorplan router)) in
      ( replayed,
        List.init nets (fun n -> Ugraph.n_edges_live (Router.routing_graph router n).Routing_graph.graph)
        |> List.fold_left ( + ) 0 )
    end
  in
  let t2r = now () in
  let report = Router.run router in
  let t3 = now () in
  Router.set_checkpoint_hook router None;
  Router.set_commit_hook router None;
  let outcome = span "channel.finish" (fun () -> Flow.finish prep router report) in
  let t4 = now () in
  let m = outcome.Flow.o_measurement in
  let verify = Verify.routed outcome.Flow.o_router in
  let setup_s = t2 -. t0 and route_s = t3 -. t2r +. (t4 -. t3) in
  let base =
    [ ("name", Qjson.Str design);
      ("setup_s", Qjson.num setup_s);
      ("route_s", Qjson.num route_s);
      ("hash", Qjson.Str (string_of_int m.Flow.m_deletion_hash));
      ("verified", Qjson.Bool (Verify.ok verify && m.Flow.m_stopped_because = "finished"));
      ("problems", Qjson.Str (String.concat "; " verify.Verify.problems));
      ("delay_ps", Qjson.num m.Flow.m_delay_ps);
      ("bound_ps", Qjson.num m.Flow.m_lower_bound_ps);
      ("area_mm2", Qjson.num m.Flow.m_area_mm2);
      ("wire_mm", Qjson.num m.Flow.m_length_mm);
      ("violations", Qjson.int m.Flow.m_violations);
      ("constraints", Qjson.int (List.length input.Flow.constraints));
      ("cells", Qjson.int (Netlist.n_instances input.Flow.netlist));
      ("nets", Qjson.int (Netlist.n_nets input.Flow.netlist));
      ("deletions", Qjson.int m.Flow.m_deletions) ]
  in
  if not trace then base
  else begin
    (* Phase intervals between checkpoint-hook calls.  Without an STA
       in the router the timing phases return at once; their intervals
       are phase-boundary bookkeeping and go to [core.run_other_s], so
       [core.timing_phases_s] reads 0 when the STA does no work. *)
    let has_sta = Router.sta router <> None in
    let run_span =
      Pb_trace.add ~design ~name:"core.run" ~start_us:(t2r *. 1e6) ~stop_us:(t3 *. 1e6) ()
    in
    let initial = ref 0.0 and timing = ref 0.0 and area = ref 0.0 and other = ref 0.0 in
    let last =
      List.fold_left
        (fun prev (phase, t) ->
          let dt = t -. prev in
          ignore
            (Pb_trace.add ~design ~parent:run_span ~name:("core." ^ phase)
               ~start_us:(prev *. 1e6) ~stop_us:(t *. 1e6) ());
          (if phase = "initial_route" then initial := !initial +. dt
           else if phase = "improve_area" then area := !area +. dt
           else if List.mem phase timing_phases && has_sta then timing := !timing +. dt
           else other := !other +. dt);
          t)
        t2r (List.rev !marks)
    in
    other := !other +. (t3 -. last);
    let (layout, timing_build, create), prepare_replay_s = replayed in
    (* Improvement passes are counted in a second, untimed route: a
       quality hook switches selection to runner-up tracking, which
       would change the program being timed. *)
    let passes = ref 0 in
    let counted =
      Pb_trace.with_span ~design "bench.count_passes" (fun () ->
          Flow.run ~options ~timing_driven
            ~on_quality:(fun q -> if q.Router.qs_kind = Router.Q_pass then incr passes)
            (parse text))
    in
    let persist =
      match persist_dir with
      | None -> []
      | Some dir ->
        (* Persistence overhead: the same design through [Persist.route]
           (journal, snapshots, fsyncs) and through [Flow.run]. *)
        let t0 = now () in
        let h1 = (Flow.run ~options ~timing_driven input).Flow.o_measurement.Flow.m_deletion_hash in
        let t1 = now () in
        let o = Persist.route ~options ~timing_driven ~dir ~design_text:text input in
        let t2 = now () in
        let h2 = o.Flow.o_measurement.Flow.m_deletion_hash in
        [ ("flow_run_s", Qjson.num (t1 -. t0));
          ("persist_route_s", Qjson.num (t2 -. t1));
          ("persist_hash_ok", Qjson.Bool (h2 = h1)) ]
    in
    base
    @ [ ("parse_s", Qjson.num (t1 -. t0));
        ("prepare_replay_s", Qjson.num prepare_replay_s);
        ("feed_insert_s", Qjson.num layout);
        ("timing_build_s", Qjson.num timing_build);
        ("router_create_s", Qjson.num create);
        ("candidates", Qjson.int candidates);
        ("initial_route_s", Qjson.num !initial);
        ("initial_primaries", Qjson.int !initial_primaries);
        ("primaries", Qjson.int !primaries);
        ("timing_phases_s", Qjson.num !timing);
        ("improve_area_s", Qjson.num !area);
        ("run_other_s", Qjson.num !other);
        ("finish_s", Qjson.num (t4 -. t3));
        ("passes", Qjson.int !passes);
        ( "recount_hash_ok",
          Qjson.Bool
            (counted.Flow.o_measurement.Flow.m_deletion_hash = m.Flow.m_deletion_hash) ) ]
    @ persist
  end

let setup_design e text =
  let t0 = now () in
  let input = parse text in
  let _ = Flow.prepare ~options ~timing_driven:e.e_timing input in
  [ ("name", Qjson.Str e.e_name); ("setup_s", Qjson.num (now () -. t0)) ]

(* Entry point of [bench.exe rep]: handles the manifest's designs named
   [design], or all of them, and prints one JSON object. *)
let main ~dir ~design ~setup_only ~trace ~persist_dir =
  Option.iter (fun d -> if not (Sys.file_exists d) then Unix.mkdir d 0o755) persist_dir;
  let entries =
    List.filter (fun e -> Option.fold ~none:true ~some:(String.equal e.e_name) design) (read_manifest dir)
  in
  let texts = List.map (fun e -> (e, read_file (Filename.concat dir e.e_file))) entries in
  let designs =
    List.map
      (fun (e, text) ->
        let fields =
          try
            if setup_only then setup_design e text
            else
              let persist_dir =
                Option.map
                  (fun d -> Filename.concat d (Printf.sprintf "%s-%d" e.e_name (Unix.getpid ())))
                  persist_dir
              in
              route_design ~trace ~persist_dir e text
          with exn -> [ ("name", Qjson.Str e.e_name); ("error", Qjson.Str (Printexc.to_string exn)) ]
        in
        Qjson.Obj fields)
      texts
  in
  print_endline
    (Qjson.to_string
       (Qjson.Obj
          [ ("designs", Qjson.Arr designs);
            ("rss_kb", Qjson.int (vm_hwm_kb ()));
            ("spans", Qjson.Arr (List.rev_map Pb_trace.to_json !Pb_trace.spans)) ]))
