(* The repo's benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Generates the workload's inputs from the seed, measures for about S
   seconds in fresh child processes, checks every result, prints a
   human-readable report and, as the last line of stdout, one JSON
   object {correct, attempted, failed, metrics}.  With --trace 0 the
   metrics are the end-to-end ones, with --trace 1 the per-layer ones
   (see Pb_metrics and README.md).  Exits 1 when any result is wrong,
   2 on bad arguments.  Run it from the root of a checkout, through
   run.sh, which builds it first.

   Internal modes, run as child processes:
     bench.exe rep --dir D [--design NAME] [--setup-only] [--trace] [--persist-dir P]
     bench.exe drive --dir D --out O --serve EXE --seconds S --min-jobs N *)

let now = Unix.gettimeofday
let serve_exe = "_build/default/bin/bgr_serve.exe"
let work_root = ".perfbench"

let arg name =
  let v = ref None in
  Array.iteri
    (fun i a -> if a = name && i + 1 < Array.length Sys.argv then v := Some Sys.argv.(i + 1))
    Sys.argv;
  !v

let flag name = Array.exists (( = ) name) Sys.argv

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(* A fixed kernel, timed: a dependent walk through a 32 MiB random
   cycle, so it reads the memory latency the routing also depends on.
   Diagnostic only: it shows how fast the host ran at the start and at
   the end of a run, so that a spread between two sets of runs can be
   laid at the host's door.  It never normalises a metric. *)
let host_probe_ms =
  let n = 1 lsl 23 in
  let next =
    lazy
      begin
        (* Sattolo's shuffle: one cycle through all [n] slots. *)
        let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n in
        for i = 0 to n - 1 do
          a.{i} <- Int32.of_int i
        done;
        let rng = Random.State.make [| 42 |] in
        for i = n - 1 downto 1 do
          let j = Random.State.int rng i in
          let t = a.{i} in
          a.{i} <- a.{j};
          a.{j} <- t
        done;
        a
      end
  in
  fun () ->
    let next = Lazy.force next in
    let walk () =
      let p = ref 0 in
      for _ = 1 to 200_000 do
        p := Int32.to_int (Bigarray.Array1.unsafe_get next !p)
      done;
      !p
    in
    Pb_stats.median
      (List.init 5 (fun _ ->
           let t = now () in
           ignore (Sys.opaque_identity (walk ()));
           (now () -. t) *. 1000.0))

(* --- JSON access ---------------------------------------------------- *)

let field j k = Option.bind (Qjson.to_obj j) (List.assoc_opt k)
let num j k = Option.value (Option.bind (field j k) Qjson.to_float) ~default:nan
let int j k = Option.value (Option.bind (field j k) Qjson.to_int) ~default:0
let str j k = Option.value (Option.bind (field j k) Qjson.to_str) ~default:""
let bool j k = match field j k with Some (Qjson.Bool b) -> b | _ -> false
let list j k = Option.value (Option.bind (field j k) Qjson.to_list) ~default:[]

(* Run [bench.exe ARGS] in a fresh process; the last stdout line is its
   JSON result. *)
let run_child ~span args =
  let self = Sys.executable_name in
  Pb_trace.with_span span @@ fun () ->
  let ic = Unix.open_process_args_in self (Array.of_list (self :: args)) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let last =
    String.split_on_char '\n' out |> List.filter (( <> ) "") |> List.rev
    |> function l :: _ -> l | [] -> ""
  in
  match (status, Qjson.parse last) with
  | Unix.WEXITED 0, Ok j ->
    Pb_trace.adopt ~parent:(Pb_trace.current ())
      (List.filter_map Pb_trace.of_json (list j "spans"));
    Ok j
  | _, Error e -> Error ("child gave no result: " ^ e)
  | _, Ok _ -> Error "child failed"

(* --- route repetitions ------------------------------------------------ *)

type rep = { r_traced : bool; r_designs : Qjson.t list; r_rss_kb : int }

type acc = {
  mutable attempted : int;
  mutable failures : string list;
  hashes : (string, string) Hashtbl.t;  (** design -> first deletion hash seen *)
}

let fail acc msg = acc.failures <- msg :: acc.failures

(* Count and check one child's designs: errors, [Verify.routed], and the
   deletion hash against every earlier repetition of the design. *)
let check_designs acc ~routed designs =
  List.iter
    (fun d ->
      acc.attempted <- acc.attempted + 1;
      let name = str d "name" in
      if field d "error" <> None then fail acc (Printf.sprintf "%s: %s" name (str d "error"))
      else if routed then begin
        if not (bool d "verified") then
          fail acc (Printf.sprintf "%s: Verify.routed failed: %s" name (str d "problems"));
        List.iter
          (fun (k, what) ->
            match field d k with
            | Some (Qjson.Bool false) -> fail acc (Printf.sprintf "%s: %s changed the deletion hash" name what)
            | _ -> ())
          [ ("persist_hash_ok", "Persist.route"); ("recount_hash_ok", "the pass-counting route") ];
        let h = str d "hash" in
        match Hashtbl.find_opt acc.hashes name with
        | None -> Hashtbl.replace acc.hashes name h
        | Some h0 when h0 = h -> ()
        | Some h0 -> fail acc (Printf.sprintf "%s: deletion hash %s differs from %s" name h h0)
      end)
    designs

let sum_over designs k = List.fold_left (fun a d -> a +. num d k) 0.0 designs
let isum_over designs k = List.fold_left (fun a d -> a + int d k) 0 designs

(* One repetition: every design of [names] in turn, each in its own
   fresh process.  Returns the designs' results and the largest peak
   resident set among the processes, or [None] when a process failed. *)
let rep acc ~dir ~names ~span ~routed args =
  let children =
    List.map
      (fun name ->
        match run_child ~span ([ "rep"; "--dir"; dir; "--design"; name ] @ args) with
        | Ok j ->
          let designs = list j "designs" in
          check_designs acc ~routed designs;
          Some (designs, int j "rss_kb")
        | Error e ->
          acc.attempted <- acc.attempted + 1;
          fail acc e;
          None)
      names
  in
  if List.mem None children then None
  else
    let children = List.filter_map Fun.id children in
    Some (List.concat_map fst children, List.fold_left (fun m (_, kb) -> max m kb) 0 children)

(* [n] set-up-only repetitions.  Returns each one's designs. *)
let setup_reps acc ~dir ~names n =
  List.init n (fun _ -> rep acc ~dir ~names ~span:"bench.rep_setup" ~routed:false [ "--setup-only" ])
  |> List.filter_map (Option.map fst)

(* Route repetitions until [deadline], at least [min_rounds] of them.
   Each round ends with [after_round], so that the set-up repetitions
   see the same host as the routes.  Traced runs alternate untraced and
   traced repetitions. *)
let route_reps acc ~dir ~names ~deadline ~trace ~min_rounds ~persist_dir ~after_round =
  let reps = ref [] in
  let round = ref 0 and cost = ref 0.0 in
  while !round < min_rounds || now () +. !cost < deadline do
    let t0 = now () in
    let traced = trace && !round mod 2 = 1 in
    let args =
      (if traced then [ "--trace" ] else [])
      @ match persist_dir with Some p when traced -> [ "--persist-dir"; p ] | _ -> []
    in
    let span = if traced then "bench.rep_traced" else "bench.rep" in
    Option.iter
      (fun (designs, rss_kb) ->
        reps := { r_traced = traced; r_designs = designs; r_rss_kb = rss_kb } :: !reps)
      (rep acc ~dir ~names ~span ~routed:true args);
    after_round ();
    cost := now () -. t0;
    incr round
  done;
  List.rev !reps

let ok_designs r = List.for_all (fun d -> field d "error" = None) r.r_designs

(* The clean repetitions of one kind. *)
let clean ~traced reps = List.filter (fun r -> r.r_traced = traced && ok_designs r) reps

(* Design [name]'s field [k] in each of [samples] (each a list of one
   repetition's designs). *)
let design_values samples name k =
  List.filter_map
    (fun ds -> List.find_opt (fun d -> str d "name" = name) ds |> Option.map (fun d -> num d k))
    samples

(* A timing of the whole workload: each design's fastest repetition,
   summed over the designs.  See README.md: on this kind of shared host
   other tenants only ever add time, in spells of seconds to minutes,
   and the minimum over a run is the figure such a spell moves least. *)
let best_sum samples names k =
  List.fold_left (fun a name -> a +. Pb_stats.minimum (design_values samples name k)) 0.0 names

(* Quality of the routed answer, from the first clean repetition: the
   hash check makes every repetition's answer the same. *)
let quality reps =
  match List.find_opt ok_designs reps with
  | None -> []
  | Some r ->
    let ds = r.r_designs in
    let gaps =
      List.map
        (fun d -> Lower_bound.gap_percent ~delay_ps:(num d "delay_ps") ~bound_ps:(num d "bound_ps"))
        ds
    in
    [ ("delay_gap_pct", List.fold_left ( +. ) 0.0 gaps /. float_of_int (List.length gaps));
      ("area_mm2", sum_over ds "area_mm2");
      ("wire_mm", sum_over ds "wire_mm");
      ("constraints_met", float_of_int (isum_over ds "constraints" - isum_over ds "violations")) ]

let layer_names =
  [ ("io.parse_s", "parse_s");
    ("layout.feed_insert_s", "feed_insert_s");
    ("timing.build_s", "timing_build_s");
    ("core.router_create_s", "router_create_s");
    ("core.initial_route_s", "initial_route_s");
    ("core.timing_phases_s", "timing_phases_s");
    ("core.improve_area_s", "improve_area_s");
    ("core.run_other_s", "run_other_s");
    ("channel.finish_s", "finish_s") ]

(* The layers that split [Flow.prepare], replayed on a throwaway input. *)
let prepare_layers = [ "feed_insert_s"; "timing_build_s"; "router_create_s" ]

(* Per-layer figures of the traced repetitions (medians of per-rep sums),
   the two reconciliation gaps and the tracing overhead. *)
let layer_metrics reps =
  let traced = clean ~traced:true reps and untraced = clean ~traced:false reps in
  let med f = Pb_stats.median (List.map f traced) in
  let total r = sum_over r.r_designs "setup_s" +. sum_over r.r_designs "route_s" in
  let layers r = List.map (fun (_, k) -> sum_over r.r_designs k) layer_names in
  let icount k = med (fun r -> float_of_int (isum_over r.r_designs k)) in
  let deletions = icount "deletions" and primaries = icount "primaries" in
  List.map (fun (name, k) -> (name, med (fun r -> sum_over r.r_designs k))) layer_names
  @ [ ("core.candidates", icount "candidates");
      ( "core.initial_us_per_deletion",
        med (fun r -> sum_over r.r_designs "initial_route_s") *. 1e6 /. icount "initial_primaries" );
      ("core.deletions", deletions);
      ("core.cascade_pct", 100.0 *. (deletions -. primaries) /. primaries);
      ("core.passes", icount "passes");
      ( "bench.reconcile_pct",
        med (fun r -> Pb_stats.reconcile_gap_pct ~layers:(layers r) ~total:(total r)) );
      ( "bench.prepare_reconcile_pct",
        med (fun r ->
            Pb_stats.reconcile_gap_pct
              ~layers:(List.map (sum_over r.r_designs) prepare_layers)
              ~total:(sum_over r.r_designs "prepare_replay_s")) );
      ( "bench.trace_overhead_pct",
        100.0 *. ((med total /. Pb_stats.median (List.map total untraced)) -. 1.0) ) ]

(* --- report ------------------------------------------------------------- *)

let print_metrics title catalogue values =
  Printf.printf "\n%s\n" title;
  List.iter
    (fun (name, unit) ->
      Printf.printf "  %-30s %16.6g %s\n" name
        (Option.value (List.assoc_opt name values) ~default:nan)
        unit)
    catalogue

let print_working_set reps =
  match List.find_opt ok_designs reps with
  | None -> ()
  | Some r ->
    Printf.printf "\nworking set (%d designs):" (List.length r.r_designs);
    List.iter
      (fun k -> Printf.printf " %s %d," k (isum_over r.r_designs k))
      [ "cells"; "nets"; "constraints"; "deletions"; "violations" ];
    (match clean ~traced:true reps with
    | t :: _ -> Printf.printf " candidates %d" (isum_over t.r_designs "candidates")
    | [] -> ());
    print_newline ()

let write_trace ~workload ~seed =
  let path = Filename.concat work_root (Printf.sprintf "trace-%s-%d.json" workload seed) in
  let all = !Pb_trace.spans in
  Out_channel.with_open_bin path (fun oc -> output_string oc (Pb_trace.chrome_json all));
  Printf.printf "\nlayer self times (all spans of this run; trace: %s)\n" path;
  Printf.printf "  %-28s %6s %12s %12s\n" "span" "count" "total s" "self s";
  List.iter
    (fun (name, n, tot, self) -> Printf.printf "  %-28s %6d %12.4f %12.4f\n" name n tot self)
    (Pb_trace.self_times all)

(* --- workloads ------------------------------------------------------------ *)

let route_workload acc ~dir ~names ~deadline ~trace =
  let setups = ref [] in
  let reps =
    route_reps acc ~dir ~names ~deadline ~trace ~min_rounds:(if trace then 2 else 3)
      ~persist_dir:None
      ~after_round:(fun () -> setups := setup_reps acc ~dir ~names 2 @ !setups)
  in
  let untraced = clean ~traced:false reps in
  let setup_samples = List.map (fun r -> r.r_designs) untraced @ !setups in
  let e2e =
    [ ("setup_s", best_sum setup_samples names "setup_s");
      ("route_s", best_sum (List.map (fun r -> r.r_designs) untraced) names "route_s");
      ( "peak_rss_mb",
        Pb_stats.median (List.map (fun r -> float_of_int r.r_rss_kb /. 1024.0) untraced) ) ]
    @ quality reps
  in
  Printf.printf "repetitions: %d route (%d traced), %d set-up samples per design\n"
    (List.length reps)
    (List.length (List.filter (fun r -> r.r_traced) reps))
    (List.length setup_samples);
  print_working_set reps;
  let layers = if trace then layer_metrics reps else [] in
  if trace then
    List.iter
      (fun (k, what) ->
        let gap = List.assoc k layers in
        if not (gap <= Pb_stats.reconcile_limit_pct) then
          fail acc
            (Printf.sprintf "%s: %.2f%% apart (limit %.0f%%)" what gap Pb_stats.reconcile_limit_pct))
      [ ("bench.reconcile_pct", "layers do not add up to setup_s + route_s");
        ("bench.prepare_reconcile_pct", "the Flow.prepare split does not add up to Flow.prepare") ];
  (e2e, layers)

(* The serve, persist and analyze layers of a traced run, on the serve
   pool: two in-process reference routes of the pool's distinct designs
   in [ref_dir] (hashes, quality, the engine's share of a job and the
   persistence overhead), then one drive against a daemon until
   [deadline]. *)
let serve_layers acc ~ref_dir ~ref_names ~pool_dir ~deadline =
  let persist_dir = Some (Filename.concat ref_dir "persist") in
  let reps =
    route_reps acc ~dir:ref_dir ~names:ref_names ~deadline:0.0 ~trace:true ~min_rounds:2
      ~persist_dir ~after_round:ignore
  in
  let drive =
    run_child ~span:"bench.drive"
      [ "drive"; "--dir"; pool_dir; "--out"; ref_dir; "--serve"; serve_exe;
        "--seconds"; Printf.sprintf "%.3f" (Float.max 1.0 (deadline -. now ()));
        "--min-jobs"; "100" ]
  in
  match drive with
  | Error e ->
    acc.attempted <- acc.attempted + 1;
    fail acc ("serve drive: " ^ e);
    []
  | Ok drive ->
    let ref_of name k =
      Pb_stats.median (design_values (List.map (fun r -> r.r_designs) (clean ~traced:false reps)) name k)
    in
    let traced_of name k =
      Pb_stats.median (design_values (List.map (fun r -> r.r_designs) (clean ~traced:true reps)) name k)
    in
    let check_job jb =
      acc.attempted <- acc.attempted + 1;
      let name = str jb "design" in
      if not (bool jb "ok") then fail acc (Printf.sprintf "job %s failed: %s" name (str jb "result"))
      else
        match Qjson.parse (str jb "result") with
        | Error e -> fail acc ("unreadable job result: " ^ e)
        | Ok res ->
          if Hashtbl.find_opt acc.hashes name <> Some (str res "deletion_hash") then
            fail acc
              (Printf.sprintf "job %s: deletion hash %s differs from the in-process route" name
                 (str res "deletion_hash"));
          let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b) in
          if not
               (close (num res "area_mm2") (ref_of name "area_mm2")
               && close (num res "length_mm") (ref_of name "wire_mm"))
          then fail acc (Printf.sprintf "job %s: area or wiring differs from the in-process route" name)
    in
    let jobs = list drive "jobs" and inproc = list drive "inproc_jobs" in
    List.iter check_job (jobs @ inproc);
    let ok_jobs = List.filter (fun jb -> bool jb "ok") jobs in
    let lat = List.map (fun jb -> num jb "latency_ms") ok_jobs in
    let n = List.length lat in
    let spawns = int drive "worker_spawns" in
    if spawns <> n then
      fail acc (Printf.sprintf "serve_worker_spawns_total %d <> %d jobs completed" spawns n);
    let p90 = if Pb_stats.percentile_reportable ~n 0.9 then Pb_stats.percentile lat 0.9 else 0.0 in
    Printf.printf "serve drive: %d jobs, latency p50 %.1f ms (n=%d), p90 %s\n" n
      (Pb_stats.median lat) n
      (if p90 > 0.0 then Printf.sprintf "%.1f ms (n=%d, %d beyond)" p90 n (Pb_stats.samples_beyond ~n 0.9)
       else Printf.sprintf "not reported (n=%d, fewer than %d beyond)" n Pb_stats.min_beyond);
    let pool = Pb_rep.read_manifest pool_dir in
    let per_job f =
      List.fold_left (fun a e -> a +. f e.Pb_rep.e_name) 0.0 pool /. float_of_int (List.length pool)
    in
    let inproc_lat =
      List.filter_map (fun jb -> if bool jb "ok" then Some (num jb "latency_ms") else None) inproc
    in
    let per_completed k = float_of_int (int drive k) /. float_of_int (max 1 n) in
    [ ("serve.accept_ms", Pb_stats.median (List.map (fun jb -> num jb "accept_ms") ok_jobs));
      ("serve.job_p50_ms", Pb_stats.median lat);
      ("serve.job_p90_ms", p90);
      ("serve.jobs", float_of_int n);
      ("serve.route_ms", per_job (fun d -> (ref_of d "setup_s" +. ref_of d "route_s") *. 1000.0));
      ("serve.worker_overhead_ms", Pb_stats.median lat -. Pb_stats.median inproc_lat);
      ("serve.worker_spawns", float_of_int spawns);
      ( "persist.overhead_ms",
        per_job (fun d -> (traced_of d "persist_route_s" -. traced_of d "flow_run_s") *. 1000.0) );
      ("persist.journal_bytes", per_completed "journal_bytes");
      ("persist.snapshot_bytes", per_completed "snapshot_bytes");
      ("analyze.qlog_bytes", per_completed "qlog_bytes") ]

(* --- main ---------------------------------------------------------------- *)

(* The share of a traced run given to the serve layers. *)
let serve_share = 0.4

let distinct designs =
  List.fold_left
    (fun l (d : Pb_gen.design) ->
      if List.exists (fun (e : Pb_gen.design) -> e.Pb_gen.name = d.Pb_gen.name) l then l else l @ [ d ])
    [] designs

let bench ~workload ~seed ~seconds ~trace =
  if not (List.mem workload Pb_gen.workloads) then
    die "unknown workload %S (one of: %s)" workload (String.concat ", " Pb_gen.workloads);
  if not (Sys.file_exists serve_exe) then die "%s is missing: run perfbench/run.sh" serve_exe;
  Pb_trace.workload := workload;
  let dir = Filename.concat work_root (Printf.sprintf "w%d" (Unix.getpid ())) in
  mkdir_p dir;
  at_exit (fun () -> rm_rf dir);
  let probe_start = host_probe_ms () in
  Printf.printf "perfbench %s seed %d, %g s, trace %b\nhost.probe_ms at start: %.3f\n%!" workload
    seed seconds trace probe_start;
  let acc = { attempted = 0; failures = []; hashes = Hashtbl.create 8 } in
  let e2e, layers =
    Pb_trace.with_span "bench.run" @@ fun () ->
    let designs = Pb_trace.with_span "bench.generate" (fun () -> Pb_gen.designs ~workload ~seed) in
    Pb_rep.write_manifest dir designs;
    let names_of = List.map (fun (d : Pb_gen.design) -> d.Pb_gen.name) in
    let names = names_of designs in
    let ref_dir = Filename.concat dir "serve_ref" and pool_dir = Filename.concat dir "pool" in
    let ref_names =
      if not trace then []
      else begin
        let pool = Pb_gen.serve_pool ~seed in
        List.iter mkdir_p [ ref_dir; pool_dir ];
        Pb_rep.write_manifest ref_dir (distinct pool);
        Pb_rep.write_manifest pool_dir pool;
        names_of (distinct pool)
      end
    in
    (* Timing starts only now: inputs are generated and calibrated. *)
    let deadline = now () +. seconds in
    if not trace then route_workload acc ~dir ~names ~deadline ~trace
    else begin
      let e2e, layers =
        route_workload acc ~dir ~names ~deadline:(deadline -. (serve_share *. seconds)) ~trace
      in
      (e2e, layers @ serve_layers acc ~ref_dir ~ref_names ~pool_dir ~deadline)
    end
  in
  let probe_end = host_probe_ms () in
  Printf.printf "host.probe_ms at end: %.3f\n" probe_end;
  let failed = List.length acc.failures in
  let attempted = max 1 acc.attempted in
  let fail_pct = Pb_stats.fail_pct ~attempted ~failed in
  let layers =
    if layers = [] then []
    else
      layers
      @ [ ("bench.fail_pct", fail_pct); ("host.probe_start_ms", probe_start);
          ("host.probe_end_ms", probe_end) ]
  in
  print_metrics "end-to-end" Pb_metrics.end_to_end e2e;
  Printf.printf "  %-30s %16.6g %%  (%d failed of %d attempted)\n" "fail_pct" fail_pct failed attempted;
  if trace then begin
    print_metrics "per layer (median of traced repetitions)" Pb_metrics.per_layer layers;
    write_trace ~workload ~seed
  end;
  List.iter (fun f -> Printf.printf "FAILURE: %s\n" f) (List.rev acc.failures);
  let catalogue, values = if trace then (Pb_metrics.per_layer, layers) else (Pb_metrics.end_to_end, e2e) in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value (List.assoc_opt name values) ~default:0.0 in
        let v = if Float.is_nan v then 0.0 else v in
        (name, Qjson.Obj [ ("value", Qjson.Num v); ("unit", Qjson.Str unit) ]))
      catalogue
  in
  print_endline
    (Qjson.to_string
       (Qjson.Obj
          [ ("correct", Qjson.Bool (failed = 0)); ("attempted", Qjson.int attempted);
            ("failed", Qjson.int failed); ("metrics", Qjson.Obj metrics) ]));
  exit (if failed = 0 then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "rep" :: _ ->
    let dir = Option.value (arg "--dir") ~default:"." in
    Pb_rep.main ~dir ~design:(arg "--design") ~setup_only:(flag "--setup-only")
      ~trace:(flag "--trace") ~persist_dir:(arg "--persist-dir")
  | _ :: "drive" :: _ ->
    let dir = Option.value (arg "--dir") ~default:"." in
    let seconds = Option.bind (arg "--seconds") float_of_string_opt |> Option.value ~default:10.0 in
    let min_jobs = Option.bind (arg "--min-jobs") int_of_string_opt |> Option.value ~default:100 in
    Pb_drive.main ~dir ~out:(Option.value (arg "--out") ~default:dir)
      ~serve_exe:(Option.value (arg "--serve") ~default:serve_exe) ~seconds ~min_jobs
  | _ ->
    let int_arg name =
      match arg name with
      | None -> die "missing %s" name
      | Some s -> ( match int_of_string_opt s with Some n -> n | None -> die "bad %s %S" name s)
    in
    let workload = match arg "--workload" with Some w -> w | None -> die "missing --workload" in
    let seed = int_arg "--seed" and seconds = int_arg "--seconds" in
    let trace =
      match arg "--trace" with
      | Some "1" -> true
      | Some "0" | None -> false
      | Some s -> die "bad --trace %S" s
    in
    if seconds < 1 then die "--seconds must be positive";
    bench ~workload ~seed ~seconds:(float_of_int seconds) ~trace
