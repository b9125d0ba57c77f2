let design_file = "design.bgr"
let manifest_file = "MANIFEST"
let journal_file = "journal.bgrj"
let snapshot_file = "snapshot.bgrs"

let ( / ) = Filename.concat

let io_fail path msg =
  Bgr_error.raise_error ~phase:"persist" ~file:path Bgr_error.Io_error "%s" msg

let ensure_dir dir =
  try Unix.mkdir dir 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | Unix.Unix_error (e, _, _) -> io_fail dir (Unix.error_message e)

let write_file_atomic path s =
  try Obs.write_file_atomic path s with Sys_error msg -> io_fail path msg

(* --- the run manifest ------------------------------------------------ *)

let manifest_string ~timing_driven (o : Router.options) =
  let est =
    match o.cl_estimator with
    | Router.Tentative_tree -> "tentative_tree"
    | Router.Star_bbox -> "star_bbox"
  and dm =
    match o.delay_model with
    | Router.Lumped_c -> "lumped_c"
    | Router.Elmore_rc -> "elmore_rc"
  in
  Printf.sprintf
    "bgr-manifest 1\n\
     timing_driven %b\n\
     cl_estimator %s\n\
     delay_model %s\n\
     area_first_ordering %b\n\
     max_recover_passes %d\n\
     max_delay_passes %d\n\
     max_area_passes %d\n"
    timing_driven est dm o.area_first_ordering o.max_recover_passes o.max_delay_passes
    o.max_area_passes

exception Bad of string

let parse_manifest ?file s =
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  match
    let kv =
      String.split_on_char '\n' s
      |> List.filter_map (fun l ->
             let l = String.trim l in
             if l = "" then None
             else
               match String.index_opt l ' ' with
               | None -> fail "manifest line %S has no value" l
               | Some i ->
                 Some
                   (String.sub l 0 i, String.trim (String.sub l i (String.length l - i))))
    in
    (match kv with
    | ("bgr-manifest", "1") :: _ -> ()
    | _ -> fail "not a bgr run manifest (or unsupported version)");
    let get k =
      match List.assoc_opt k kv with
      | Some v -> v
      | None -> fail "manifest is missing the %s field" k
    in
    let bool_of k =
      match get k with
      | "true" -> true
      | "false" -> false
      | v -> fail "manifest field %s wants a boolean, got %S" k v
    in
    let int_of k =
      match int_of_string_opt (get k) with
      | Some v -> v
      | None -> fail "manifest field %s wants an integer, got %S" k (get k)
    in
    let cl_estimator =
      match get "cl_estimator" with
      | "tentative_tree" -> Router.Tentative_tree
      | "star_bbox" -> Router.Star_bbox
      | v -> fail "manifest: unknown cl_estimator %S" v
    and delay_model =
      match get "delay_model" with
      | "lumped_c" -> Router.Lumped_c
      | "elmore_rc" -> Router.Elmore_rc
      | v -> fail "manifest: unknown delay_model %S" v
    in
    let options =
      { Router.default_options with
        cl_estimator;
        delay_model;
        area_first_ordering = bool_of "area_first_ordering";
        max_recover_passes = int_of "max_recover_passes";
        max_delay_passes = int_of "max_delay_passes";
        max_area_passes = int_of "max_area_passes" }
    in
    (bool_of "timing_driven", options)
  with
  | r -> Ok r
  | exception Bad m -> Error (Bgr_error.make ?file ~phase:"persist" Bgr_error.Parse "%s" m)

(* --- hooks ----------------------------------------------------------- *)

(* The commit hook is the write-ahead step: the record hits the journal
   (and the OS) before the router touches the graphs.  Appends must
   come from the orchestrating domain — the scoring pool only reads
   routing state — so a worker reaching this hook is a routing bug, not
   an I/O condition. *)
let install_hooks router w ~dir =
  Router.set_commit_hook router
    (Some
       (fun (dc : Router.deletion_commit) ->
         Par.assert_orchestrator ~what:"journal append";
         Journal.append w
           { Journal.r_phase = dc.dc_phase;
             r_area_mode = dc.dc_area_mode;
             r_net = dc.dc_net;
             r_edge = dc.dc_edge;
             r_deletions_before = dc.dc_deletions_before;
             r_hash_before = dc.dc_hash_before }));
  Router.set_checkpoint_hook router
    (Some
       (fun ~phase:_ ~completed ck ->
         Journal.sync w;
         Snapshot.write ~path:(dir / snapshot_file)
           (Snapshot.of_checkpoint ~phases:completed ~dens:(Router.density router) ck)))

let clear_hooks router =
  Router.set_commit_hook router None;
  Router.set_checkpoint_hook router None

let run_hooked ?budget ?channel_algorithm ?on_quality ?(completed = []) ~dir prep router w =
  let report =
    Fun.protect
      ~finally:(fun () ->
        clear_hooks router;
        Router.set_quality_hook router None;
        Journal.close w)
      (fun () ->
        install_hooks router w ~dir;
        Router.set_quality_hook router on_quality;
        Router.run ?budget ~completed router)
  in
  Flow.finish ?channel_algorithm ?on_quality prep router report

(* --- the persistent entry points ------------------------------------- *)

let route ?options ?timing_driven:(td = true) ?channel_algorithm ?budget ?on_quality ~dir
    ~design_text input =
  let options = match options with Some o -> o | None -> Router.default_options in
  ensure_dir dir;
  write_file_atomic (dir / design_file) design_text;
  write_file_atomic (dir / manifest_file) (manifest_string ~timing_driven:td options);
  (* A stale snapshot from an earlier run in the same directory must
     not survive into this run's recovery state. *)
  (try Sys.remove (dir / snapshot_file) with Sys_error _ -> ());
  let prep, router = Flow.prepare ~options ~timing_driven:td input in
  let w = Journal.create ~path:(dir / journal_file) in
  run_hooked ?budget ?channel_algorithm ?on_quality ~dir prep router w

type resume_report = {
  rr_outcome : Flow.outcome;
  rr_replayed : int;
  rr_discarded : int;
  rr_completed_at_load : string list;
  rr_warnings : string list;
}

let ( let* ) = Result.bind

let read_file path =
  match Lineio.read_all path with
  | s -> Ok s
  | exception Sys_error msg ->
    Error (Bgr_error.make ~file:path ~phase:"persist" Bgr_error.Io_error "%s" msg)

let internal fmt = Bgr_error.raise_error ~phase:"resume" Bgr_error.Internal fmt

let resume ?(domains = 0) ?channel_algorithm ?budget ?on_quality ~dir () =
  let* manifest_text = read_file (dir / manifest_file) in
  let* timing_driven, options =
    parse_manifest ~file:(dir / manifest_file) manifest_text
  in
  let options = { options with Router.domains } in
  let* design_text = read_file (dir / design_file) in
  let* design = Design_io.of_string_result ~file:(dir / design_file) design_text in
  let* design = Design_check.validate design in
  let* input =
    Lineio.protect ~file:(dir / design_file) (fun () -> Design_io.to_flow_input design)
  in
  let snap_path = dir / snapshot_file in
  let* snap =
    if Sys.file_exists snap_path then
      let* s = Snapshot.load ~path:snap_path in
      Ok (Some s)
    else Ok None
  in
  let journal_path = dir / journal_file in
  let journal_missing = not (Sys.file_exists journal_path) in
  let* jr =
    if journal_missing then
      Ok
        { Journal.records = [];
          valid_bytes = Journal.header_bytes;
          torn = false;
          warnings =
            [ "no journal file found; resuming from the snapshot state alone" ] }
    else Journal.read ~path:journal_path
  in
  Lineio.protect ~file:journal_path (fun () ->
      let warnings = ref jr.Journal.warnings in
      let warn fmt = Printf.ksprintf (fun m -> warnings := !warnings @ [ m ]) fmt in
      let prep, router = Flow.prepare ~options ~timing_driven input in
      let completed, replayed, discarded, keep_bytes =
        match snap with
        | Some s ->
          Router.restore router (Snapshot.to_checkpoint s);
          (* Densities were rebuilt from the live sets; the snapshot
             recorded the originals.  Any disagreement means the
             snapshot does not describe this design/options pair. *)
          let dens = Router.density router in
          if Array.length s.Snapshot.s_densities <> Density.n_channels dens then
            internal "snapshot has %d density charts, the design has %d channels"
              (Array.length s.Snapshot.s_densities)
              (Density.n_channels dens);
          Array.iteri
            (fun c recorded ->
              if Density.chart dens ~channel:c <> recorded then
                internal
                  "snapshot density chart of channel %d disagrees with the restored state"
                  c)
            s.Snapshot.s_densities;
          let kept, dropped =
            List.partition
              (fun ((r : Journal.record), _) -> r.r_deletions_before < s.s_deletions)
              jr.records
          in
          let keep_bytes =
            match List.rev kept with
            | (_, past) :: _ -> past
            | [] -> Journal.header_bytes
          in
          if dropped <> [] then
            warn
              "discarded %d journaled deletions recorded after the snapshot; the \
               interrupted phase re-runs deterministically from its boundary"
              (List.length dropped);
          (s.s_phases, 0, List.length dropped, keep_bytes)
        | None ->
          (* Killed during initial routing: no snapshot yet.  Replay
             the journal record by record, holding it to the recorded
             deletion-hash chain. *)
          List.iteri
            (fun i ((r : Journal.record), _) ->
              if r.r_phase <> "initial_route" then
                internal "journal record %d is from phase %s but there is no snapshot"
                  i r.r_phase;
              if
                r.r_deletions_before <> Router.n_deletions router
                || r.r_hash_before <> Router.deletion_hash router
              then
                internal
                  "journal record %d breaks the deletion-hash chain (recorded %d/%d, \
                   replayed %d/%d)"
                  i r.r_deletions_before r.r_hash_before (Router.n_deletions router)
                  (Router.deletion_hash router);
              Router.apply_deletion router ~net:r.r_net ~edge:r.r_edge)
            jr.records;
          ([], List.length jr.records, 0, jr.valid_bytes)
      in
      let w =
        if journal_missing then Journal.create ~path:journal_path
        else Journal.reopen ~path:journal_path ~keep_bytes
      in
      let outcome =
        run_hooked ?budget ?channel_algorithm ?on_quality ~completed ~dir prep router w
      in
      { rr_outcome = outcome;
        rr_replayed = replayed;
        rr_discarded = discarded;
        rr_completed_at_load = completed;
        rr_warnings = !warnings })
