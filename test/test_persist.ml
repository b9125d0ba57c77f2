(* Crash-safe persistence: the journal binary format (QCheck round
   trips with torn-tail truncation and CRC detection), snapshot
   atomicity, kill/resume bit-identity across fault sites and domain
   counts, and the state auditor detecting — and where possible
   repairing — deliberately corrupted routing states. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- scratch run directories ----------------------------------------- *)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bgr_persist_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let plan s =
  match Fault.parse_plan s with
  | Ok p -> p
  | Error m -> Alcotest.failf "parse_plan %S: %s" s m

(* --- the example designs --------------------------------------------- *)

type design = {
  d_name : string;
  d_input : Flow.input;
  d_text : string;
  d_hash : int Lazy.t;  (** deletion hash of an uninterrupted run *)
}

let design_of_input d_name (d_input : Flow.input) =
  let fp = Flow.floorplan_of_input d_input in
  let d_text =
    Design_io.to_string ~floorplan:fp ~constraints:d_input.Flow.constraints
      d_input.Flow.netlist
  in
  let d_hash =
    lazy (Flow.run d_input).Flow.o_measurement.Flow.m_deletion_hash
  in
  { d_name; d_input; d_text; d_hash }

let gen_input seed =
  let params =
    { Circuit_gen.default_params with
      Circuit_gen.seed = Int64.of_int seed;
      n_comb = 36;
      n_ff = 6;
      n_inputs = 5;
      n_outputs = 5;
      n_levels = 3;
      n_diff_pairs = 2;
      n_constraints = 4 }
  in
  let netlist, constraints = Circuit_gen.generate params in
  let placed = Placement.place ~netlist ~n_rows:4 Placement.P1 in
  Placement.to_flow_input ~netlist ~dims:Dims.default ~constraints placed

let designs =
  lazy
    [ design_of_input "mini" (Suite.mini ()).Suite.input;
      design_of_input "gen11" (gen_input 11);
      design_of_input "gen23" (gen_input 23) ]

(* --- persistent route == plain flow ----------------------------------- *)

let test_route_matches_flow () =
  List.iter
    (fun d ->
      let dir = fresh_dir () in
      let outcome = Persist.route ~dir ~design_text:d.d_text d.d_input in
      check_int
        (d.d_name ^ ": hooked run deletes identically to the plain flow")
        (Lazy.force d.d_hash)
        outcome.Flow.o_measurement.Flow.m_deletion_hash;
      check_bool (d.d_name ^ ": snapshot written") true
        (Sys.file_exists (Filename.concat dir Persist.snapshot_file));
      check_bool (d.d_name ^ ": journal written") true
        (Sys.file_exists (Filename.concat dir Persist.journal_file)))
    (Lazy.force designs)

(* --- kill/resume bit-identity ----------------------------------------- *)

(* Route under a fault plan; if the injected fault killed the run,
   resume it and demand the uninterrupted deletion hash, a complete
   routing and a clean audit.  Plans that never fire (the design was
   too small to reach the site's count) degrade to a completed run,
   which we simply check directly. *)
let kill_and_resume ~plan_str ~domains d =
  let dir = fresh_dir () in
  let killed =
    match
      Fault.with_plan (plan plan_str) (fun () ->
          Persist.route ~dir ~design_text:d.d_text d.d_input)
    with
    | (_ : Flow.outcome) -> false
    | exception Bgr_error.Error e when e.Bgr_error.code = Bgr_error.Fault -> true
  in
  (match Persist.resume ~domains ~dir () with
  | Error e -> Alcotest.failf "%s [%s]: resume failed: %s" d.d_name plan_str (Bgr_error.to_string e)
  | Ok r ->
    let router = r.Persist.rr_outcome.Flow.o_router in
    check_int
      (Printf.sprintf "%s [%s, domains=%d]: resumed hash is bit-identical" d.d_name plan_str
         domains)
      (Lazy.force d.d_hash) (Router.deletion_hash router);
    check_bool (d.d_name ^ ": resumed state is fully routed") true (Router.is_routed router);
    check_bool
      (d.d_name ^ ": resumed state audits clean")
      true
      (Verify.audit_ok (Verify.audit ~measured_caps:true router)));
  killed

let test_kill_at_append () =
  List.iter
    (fun d ->
      let killed = kill_and_resume ~plan_str:"persist.append:n=10" ~domains:1 d in
      check_bool (d.d_name ^ ": the 10th append fault fired") true killed)
    (Lazy.force designs)

let test_kill_at_snapshot () =
  List.iter
    (fun d ->
      let killed = kill_and_resume ~plan_str:"persist.snapshot:n=1" ~domains:1 d in
      check_bool (d.d_name ^ ": the snapshot fault fired") true killed)
    (Lazy.force designs)

let test_kill_late_and_at_fsync () =
  let d = List.hd (Lazy.force designs) in
  ignore (kill_and_resume ~plan_str:"persist.append:n=45" ~domains:1 d : bool);
  ignore (kill_and_resume ~plan_str:"persist.fsync:n=1" ~domains:1 d : bool)

let test_resume_on_four_domains () =
  let d = List.hd (Lazy.force designs) in
  let killed = kill_and_resume ~plan_str:"persist.append:n=25" ~domains:4 d in
  check_bool "the kill fired before the 4-domain resume" true killed

(* A resume can itself be killed and resumed: the journal and snapshot
   keep accumulating across generations of the same run directory. *)
let test_double_kill () =
  let d = List.hd (Lazy.force designs) in
  let dir = fresh_dir () in
  (match
     Fault.with_plan
       (plan "persist.append:n=20")
       (fun () -> Persist.route ~dir ~design_text:d.d_text d.d_input)
   with
  | (_ : Flow.outcome) -> Alcotest.fail "first kill did not fire"
  | exception Bgr_error.Error e when e.Bgr_error.code = Bgr_error.Fault -> ());
  (match
     Fault.with_plan (plan "persist.append:n=20") (fun () -> Persist.resume ~domains:1 ~dir ())
   with
  | Ok _ -> Alcotest.fail "second kill did not fire"
  (* resume runs behind the protect boundary, so the injected fault
     surfaces as a structured Error, not an exception *)
  | Error e when e.Bgr_error.code = Bgr_error.Fault -> ()
  | Error e -> Alcotest.failf "resume failed structurally: %s" (Bgr_error.to_string e));
  match Persist.resume ~domains:1 ~dir () with
  | Error e -> Alcotest.failf "final resume failed: %s" (Bgr_error.to_string e)
  | Ok r ->
    check_int "twice-killed run still lands on the uninterrupted hash" (Lazy.force d.d_hash)
      r.Persist.rr_outcome.Flow.o_measurement.Flow.m_deletion_hash

(* A random kill on MINI or C1P1 — at the K-th journal append or the
   K-th snapshot write — always resumes to the uninterrupted hash.  K
   ranges over the whole run: 1 .. the uninterrupted run's journal
   records, or 1 .. its snapshot writes (one per completed phase). *)
let resume_designs =
  lazy
    (List.map
       (fun d ->
         let dir = fresh_dir () in
         let o = Persist.route ~dir ~design_text:d.d_text d.d_input in
         let appends =
           match Journal.read ~path:(Filename.concat dir Persist.journal_file) with
           | Ok j -> List.length j.Journal.records
           | Error e -> Alcotest.failf "%s: journal: %s" d.d_name (Bgr_error.to_string e)
         in
         (d, appends, List.length o.Flow.o_run_report.Router.completed_phases))
       [ List.hd (Lazy.force designs);
         design_of_input "C1P1" (Suite.make_case ~circuit:"C1" ~placement:Placement.P1).Suite.input ])

let prop_random_kill_resumes =
  QCheck.Test.make ~name:"a random append/snapshot kill resumes to the hash" ~count:30
    (QCheck.make
       ~print:(fun (i, site, k) -> Printf.sprintf "design %d, persist.%s:n=%d" i site k)
       QCheck.Gen.(
         int_bound 1 >>= fun i ->
         let _, appends, snapshots = List.nth (Lazy.force resume_designs) i in
         oneof
           [ map (fun k -> (i, "append", k)) (int_range 1 appends);
             map (fun k -> (i, "snapshot", k)) (int_range 1 snapshots) ]))
    (fun (i, site, k) ->
      let d, _, _ = List.nth (Lazy.force resume_designs) i in
      kill_and_resume ~plan_str:(Printf.sprintf "persist.%s:n=%d" site k) ~domains:1 d)

(* --- torn tails and corruption on disk -------------------------------- *)

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let killed_dir d =
  let dir = fresh_dir () in
  (match
     Fault.with_plan
       (plan "persist.append:n=20")
       (fun () -> Persist.route ~dir ~design_text:d.d_text d.d_input)
   with
  | (_ : Flow.outcome) -> Alcotest.fail "kill did not fire"
  | exception Bgr_error.Error e when e.Bgr_error.code = Bgr_error.Fault -> ());
  dir

let test_torn_tail_resumes () =
  let d = List.hd (Lazy.force designs) in
  let dir = killed_dir d in
  let jpath = Filename.concat dir Persist.journal_file in
  let bytes = read_bytes jpath in
  (* Chop into the middle of the final record: the kill-during-append
     disk state. *)
  write_bytes jpath (String.sub bytes 0 (String.length bytes - 13));
  match Persist.resume ~domains:1 ~dir () with
  | Error e -> Alcotest.failf "torn tail should resume: %s" (Bgr_error.to_string e)
  | Ok r ->
    check_bool "the truncation left a warning" true
      (List.exists
         (fun w ->
           let has_sub sub =
             let n = String.length sub and m = String.length w in
             let rec go i = i + n <= m && (String.sub w i n = sub || go (i + 1)) in
             go 0
           in
           has_sub "truncated")
         r.Persist.rr_warnings);
    check_int "torn tail still lands on the uninterrupted hash" (Lazy.force d.d_hash)
      r.Persist.rr_outcome.Flow.o_measurement.Flow.m_deletion_hash

let flip_byte path off =
  let bytes = Bytes.of_string (read_bytes path) in
  Bytes.set bytes off (Char.chr (Char.code (Bytes.get bytes off) lxor 0x5A));
  write_bytes path (Bytes.to_string bytes)

let test_midfile_corruption_is_structural () =
  let d = List.hd (Lazy.force designs) in
  let dir = killed_dir d in
  let jpath = Filename.concat dir Persist.journal_file in
  (* Flip a payload byte of the FIRST record: corruption before the
     final record is a parse error, not a silent truncation. *)
  flip_byte jpath (Journal.header_bytes + 10);
  match Persist.resume ~domains:1 ~dir () with
  | Ok _ -> Alcotest.fail "mid-file corruption must not resume"
  | Error e -> check_bool "code is Parse" true (e.Bgr_error.code = Bgr_error.Parse)

let test_snapshot_corruption_is_structural () =
  let d = List.hd (Lazy.force designs) in
  let dir = fresh_dir () in
  ignore (Persist.route ~dir ~design_text:d.d_text d.d_input : Flow.outcome);
  let spath = Filename.concat dir Persist.snapshot_file in
  flip_byte spath (String.length (read_bytes spath) / 2);
  match Persist.resume ~domains:1 ~dir () with
  | Ok _ -> Alcotest.fail "a corrupt snapshot must not resume"
  | Error e -> check_bool "code is Parse" true (e.Bgr_error.code = Bgr_error.Parse)

(* --- snapshot -> load -> audit clean ----------------------------------- *)

let test_snapshot_load_audit_clean () =
  let d = List.hd (Lazy.force designs) in
  let dir = fresh_dir () in
  ignore (Persist.route ~dir ~design_text:d.d_text d.d_input : Flow.outcome);
  match Snapshot.load ~path:(Filename.concat dir Persist.snapshot_file) with
  | Error e -> Alcotest.failf "snapshot load: %s" (Bgr_error.to_string e)
  | Ok s ->
    let _prep, router = Flow.prepare d.d_input in
    Router.restore router (Snapshot.to_checkpoint s);
    let a = Verify.audit router in
    check_bool
      (Format.asprintf "restored snapshot audits clean (%a)" Verify.pp_audit a)
      true (Verify.audit_ok a);
    check_int "restored hash equals the recorded one" s.Snapshot.s_del_hash
      (Router.deletion_hash router)

(* --- QCheck: journal format ------------------------------------------- *)

let phases =
  [ "initial_route";
    "recover_violations";
    "improve_delay";
    "improve_area";
    "final_recovery";
    "final_delay" ]

let gen_record =
  QCheck.Gen.(
    map
      (fun (phase, area, net, edge, dels, hash) ->
        { Journal.r_phase = phase;
          r_area_mode = area;
          r_net = net;
          r_edge = edge;
          r_deletions_before = dels;
          r_hash_before = hash })
      (tup6 (oneofl phases) bool (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF)
         (int_bound max_int) (int_bound max_int)))

let print_record (r : Journal.record) =
  Printf.sprintf "{%s %b net=%d edge=%d dels=%d hash=%d}" r.Journal.r_phase r.r_area_mode
    r.r_net r.r_edge r.r_deletions_before r.r_hash_before

let arb_records =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map print_record l))
    QCheck.Gen.(list_size (int_range 1 20) gen_record)

let journal_bytes records =
  Journal.magic ^ String.concat "" (List.map Journal.encode_frame records)

let prop_roundtrip =
  QCheck.Test.make ~name:"journal records round-trip" ~count:100 arb_records (fun records ->
      match Journal.read_string (journal_bytes records) with
      | Error e -> QCheck.Test.fail_reportf "read: %s" (Bgr_error.to_string e)
      | Ok r ->
        (not r.Journal.torn)
        && r.Journal.warnings = []
        && List.map fst r.Journal.records = records)

let prop_torn_tail =
  let arb =
    QCheck.make
      ~print:(fun (l, cut) -> Printf.sprintf "%d records, cut=%d" (List.length l) cut)
      QCheck.Gen.(
        pair (list_size (int_range 1 12) gen_record) (int_bound 10000))
  in
  QCheck.Test.make ~name:"any tail truncation yields a clean prefix" ~count:200 arb
    (fun (records, cut) ->
      let bytes = journal_bytes records in
      let cut = Journal.header_bytes + (cut mod (String.length bytes - Journal.header_bytes + 1)) in
      match Journal.read_string (String.sub bytes 0 cut) with
      | Error e -> QCheck.Test.fail_reportf "truncation must not be fatal: %s" (Bgr_error.to_string e)
      | Ok r ->
        let got = List.map fst r.Journal.records in
        let k = List.length got in
        k <= List.length records
        && got = List.filteri (fun i _ -> i < k) records
        && (r.Journal.torn = (cut <> Journal.header_bytes + (34 * k)))
        && (r.Journal.torn || r.Journal.warnings = []))

(* The golden journal (test/corpus/frames/journal.bgrj) was written by
   the encoder before the framing moved into [Frame]: today's encoder
   must reproduce it byte for byte and the reader must decode it. *)
let golden_journal =
  [ { Journal.r_phase = "initial_route"; r_area_mode = false; r_net = 3; r_edge = 17;
      r_deletions_before = 0; r_hash_before = 0 };
    { Journal.r_phase = "improve_delay"; r_area_mode = false; r_net = 12; r_edge = 305;
      r_deletions_before = 41; r_hash_before = 0x123456789ABC };
    { Journal.r_phase = "improve_area"; r_area_mode = true; r_net = 7; r_edge = 88;
      r_deletions_before = 97; r_hash_before = -1234567890123 } ]

let test_golden_journal () =
  let golden = Util.read_fixture "journal.bgrj" in
  Alcotest.(check string) "re-encodes byte for byte" golden (journal_bytes golden_journal);
  match Journal.read_string golden with
  | Error e -> Alcotest.failf "read: %s" (Bgr_error.to_string e)
  | Ok r ->
    check_bool "decodes to the golden records" true (List.map fst r.Journal.records = golden_journal);
    check_bool "not torn" false r.Journal.torn;
    check_int "every byte valid" (String.length golden) r.Journal.valid_bytes

let prop_midfile_flip_detected =
  let arb =
    QCheck.make
      ~print:(fun (l, off) -> Printf.sprintf "%d records, flip@%d" (List.length l) off)
      QCheck.Gen.(pair (list_size (int_range 2 8) gen_record) (int_bound Journal.payload_len))
  in
  QCheck.Test.make ~name:"payload corruption before the final record is an error" ~count:100 arb
    (fun (records, off) ->
      let off = Journal.header_bytes + 4 + (off mod Journal.payload_len) in
      let b = Bytes.of_string (journal_bytes records) in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
      match Journal.read_string (Bytes.to_string b) with
      | Error e -> e.Bgr_error.code = Bgr_error.Parse
      | Ok _ -> false)

(* --- QCheck: snapshot format ------------------------------------------ *)

let gen_snapshot =
  QCheck.Gen.(
    map
      (fun (phases, dels, hash, live, dens) ->
        { Snapshot.s_phases = phases;
          s_deletions = dels;
          s_del_hash = hash;
          s_live = Array.of_list live;
          s_densities =
            Array.of_list (List.map (fun ch -> Array.of_list ch) dens) })
      (tup5
         (list_size (int_bound 6) (oneofl phases))
         (int_bound 100000) (int_bound max_int)
         (list_size (int_bound 8) (list_size (int_bound 10) (int_bound 10000)))
         (list_size (int_bound 4)
            (list_size (int_bound 12) (pair (int_bound 50) (int_bound 50))))))

let arb_snapshot = QCheck.make ~print:Snapshot.to_string gen_snapshot

let prop_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshots round-trip through the text format" ~count:200 arb_snapshot
    (fun s ->
      match Snapshot.of_string (Snapshot.to_string s) with
      | Error e -> QCheck.Test.fail_reportf "reject: %s" (Bgr_error.to_string e)
      | Ok s' -> s = s')

let prop_snapshot_flip_detected =
  let arb =
    QCheck.make
      ~print:(fun (s, off) -> Printf.sprintf "flip@%d of %s" off (Snapshot.to_string s))
      QCheck.Gen.(pair gen_snapshot (int_bound 100000))
  in
  QCheck.Test.make ~name:"any single-byte snapshot flip is caught" ~count:200 arb
    (fun (s, off) ->
      let b = Bytes.of_string (Snapshot.to_string s) in
      let off = off mod Bytes.length b in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x04));
      match Snapshot.of_string (Bytes.to_string b) with
      | Error _ -> true
      | Ok s' -> s' = s (* a flip inside ignored whitespace may survive *))

(* --- the auditor on deliberately corrupted states ---------------------- *)

let routed_router input =
  let _prep, router = Flow.prepare input in
  ignore (Router.run router : Router.run_report);
  router

let test_audit_detects_density_damage () =
  let d = List.hd (Lazy.force designs) in
  let router = routed_router d.d_input in
  Density.add_trunk (Router.density router) ~channel:0 ~span:(Interval.make 2 6) ~w:1
    ~bridge:false;
  let a = Verify.audit router in
  check_bool "phantom trunk detected" false (Verify.audit_ok a);
  let repaired = Verify.audit ~repair:true router in
  check_bool "density damage repaired" true (Verify.audit_ok repaired);
  check_bool "repair recorded" true (repaired.Verify.repairs <> [])

let test_audit_detects_dead_tree_edge () =
  let d = List.hd (Lazy.force designs) in
  let router = routed_router d.d_input in
  let rg = Router.routing_graph router 0 in
  (match Router.tree_edges router 0 with
  | e :: _ -> Ugraph.delete_edge rg.Routing_graph.graph e
  | [] -> Alcotest.fail "net 0 has no tree");
  let a = Verify.audit router in
  check_bool "severed tree edge detected" false (Verify.audit_ok a);
  (* Primal damage: the net is genuinely disconnected, so even a
     repair pass must keep reporting it. *)
  let repaired = Verify.audit ~repair:true router in
  check_bool "disconnection survives repair" false (Verify.audit_ok repaired)

let test_audit_detects_broken_mirror () =
  let d = List.nth (Lazy.force designs) 1 in
  let router = routed_router d.d_input in
  check_bool "gen design recognizes pairs" true (Router.n_recognized_pairs router > 0);
  let n_nets = Netlist.n_nets d.d_input.Flow.netlist in
  let mirrored = ref None in
  for n = n_nets - 1 downto 0 do
    if Router.mirrored router n then mirrored := Some n
  done;
  (match !mirrored with
  | None -> Alcotest.fail "no mirrored net found"
  | Some n -> (
    let rg = Router.routing_graph router n in
    match Router.tree_edges router n with
    | e :: _ -> Ugraph.delete_edge rg.Routing_graph.graph e
    | [] -> Alcotest.fail "mirrored net has no tree"));
  let a = Verify.audit router in
  check_bool "broken mirroring detected" false (Verify.audit_ok a);
  let repaired = Verify.audit ~repair:true router in
  check_bool "repair dropped the pair recognition" true
    (List.exists
       (fun r ->
         let n = String.length "pair" and m = String.length r in
         let rec go i = i + n <= m && (String.sub r i n = "pair" || go (i + 1)) in
         go 0)
       repaired.Verify.repairs)

let test_audit_detects_stale_timing () =
  let d = List.hd (Lazy.force designs) in
  let router = routed_router d.d_input in
  (match Router.sta router with
  | None -> Alcotest.fail "mini has constraints"
  | Some sta ->
    let dg = Sta.delay_graph sta in
    let cap = Delay_graph.net_cap dg 0 in
    Delay_graph.set_net_cap dg ~net:0 ~cap_ff:(cap +. 250.0));
  let a = Verify.audit router in
  check_bool "tampered lumped cap detected" false (Verify.audit_ok a);
  let repaired = Verify.audit ~repair:true router in
  check_bool "timing damage repaired" true (Verify.audit_ok repaired)

let test_audit_clean_on_fresh_route () =
  let d = List.hd (Lazy.force designs) in
  let router = routed_router d.d_input in
  let a = Verify.audit router in
  check_bool
    (Format.asprintf "untouched state audits clean (%a)" Verify.pp_audit a)
    true (Verify.audit_ok a);
  check_int "audited every net" (Netlist.n_nets d.d_input.Flow.netlist) a.Verify.audited_nets

(* Every phase boundary of a full run audits clean, without repair,
   timed and untimed; auditing mid-run leaves the deletion hash alone. *)
let test_audit_every_phase () =
  List.iter
    (fun (name, input) ->
      List.iter
        (fun timing_driven ->
          let label = name ^ if timing_driven then "" else " -u" in
          let prep, router = Flow.prepare ~timing_driven input in
          let audits = ref [] in
          Router.set_checkpoint_hook router
            (Some (fun ~phase ~completed:_ _ -> audits := (phase, Verify.audit router) :: !audits));
          let report = Router.run router in
          Router.set_checkpoint_hook router None;
          let o = Flow.finish prep router report in
          check_bool (label ^ ": one audit per completed phase") true
            (List.rev_map fst !audits = report.Router.completed_phases);
          List.iter
            (fun (phase, a) ->
              check_bool
                (Format.asprintf "%s: audit clean after %s (%a)" label phase Verify.pp_audit a)
                true (Verify.audit_ok a))
            (List.rev !audits);
          check_int (label ^ ": auditing at every phase leaves the hash alone")
            (Flow.run ~timing_driven input).Flow.o_measurement.Flow.m_deletion_hash
            o.Flow.o_measurement.Flow.m_deletion_hash)
        [ true; false ])
    [ ("MINI", (Suite.mini ()).Suite.input);
      ("C1P1", (Suite.make_case ~circuit:"C1" ~placement:Placement.P1).Suite.input) ]

let () =
  Alcotest.run "persist"
    [ ( "route",
        [ Alcotest.test_case "persistent route == plain flow" `Slow test_route_matches_flow ] );
      ( "kill/resume",
        [ Alcotest.test_case "kill at persist.append" `Slow test_kill_at_append;
          Alcotest.test_case "kill at persist.snapshot" `Slow test_kill_at_snapshot;
          Alcotest.test_case "late append + fsync kills" `Slow test_kill_late_and_at_fsync;
          Alcotest.test_case "resume on 4 domains" `Slow test_resume_on_four_domains;
          Alcotest.test_case "kill the resume too" `Slow test_double_kill;
          QCheck_alcotest.to_alcotest prop_random_kill_resumes ] );
      ( "disk damage",
        [ Alcotest.test_case "torn tail resumes with a warning" `Slow test_torn_tail_resumes;
          Alcotest.test_case "mid-file corruption is structural" `Slow
            test_midfile_corruption_is_structural;
          Alcotest.test_case "snapshot corruption is structural" `Slow
            test_snapshot_corruption_is_structural ] );
      ( "snapshot",
        [ Alcotest.test_case "snapshot -> load -> audit clean" `Slow
            test_snapshot_load_audit_clean ] );
      ( "journal properties",
        [ Alcotest.test_case "golden fixture" `Quick test_golden_journal;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_torn_tail;
          QCheck_alcotest.to_alcotest prop_midfile_flip_detected ] );
      ( "snapshot properties",
        [ QCheck_alcotest.to_alcotest prop_snapshot_roundtrip;
          QCheck_alcotest.to_alcotest prop_snapshot_flip_detected ] );
      ( "audit",
        [ Alcotest.test_case "clean state audits clean" `Slow test_audit_clean_on_fresh_route;
          Alcotest.test_case "every phase boundary audits clean" `Slow test_audit_every_phase;
          Alcotest.test_case "density damage" `Slow test_audit_detects_density_damage;
          Alcotest.test_case "severed tree edge" `Slow test_audit_detects_dead_tree_edge;
          Alcotest.test_case "broken pair mirroring" `Slow test_audit_detects_broken_mirror;
          Alcotest.test_case "stale timing caps" `Slow test_audit_detects_stale_timing ] ) ]
