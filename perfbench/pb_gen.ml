(* Seeded workload inputs.  Everything here runs before any timing
   starts: the measured processes only ever read the bundle text this
   module produces.

   The circuits are the same for every seed; the seed rotates the order
   in which a repetition routes the designs and in which the serve drive
   of a traced run submits its jobs.  Circuits generated from other generator seeds with
   the same [Suite.circuit_params] shape differ too much in routing
   work to compare runs across seeds: over five seeds the paper cases
   took 3.5-7.0 s to route and their mean delay gap ranged over
   13.6-27.4 %, while one seed repeated within 12 %.  Seed 0 is
   [Suite.all ()] exactly (the test suite checks it byte for byte). *)

type design = {
  name : string;
  bundle : string;  (** {!Design_io} bundle text *)
  timing_driven : bool;
}

let default_seed = 0

(* Same headroom as the paper suite's calibration. *)
let calibration_headroom = 0.18

let bundle_of_input (input : Flow.input) =
  Design_io.to_string ~floorplan:(Flow.floorplan_of_input input)
    ~constraints:input.Flow.constraints input.Flow.netlist

(* Mirrors [Suite.circuit]: generate, place P1, calibrate the limits
   against an unconstrained reference routing. *)
let suite_circuit circuit =
  let netlist, raw = Circuit_gen.generate (Suite.circuit_params circuit) in
  let n_rows = Suite.rows_of_circuit circuit in
  let placed = Placement.place ~netlist ~n_rows Placement.P1 in
  let input = Placement.to_flow_input ~netlist ~dims:Dims.default ~constraints:raw placed in
  (netlist, n_rows, Calibrate.against_reference_route ~input ~headroom:calibration_headroom)

let suite_case ~timing_driven (netlist, n_rows, constraints) ~name style =
  let placed = Placement.place ~netlist ~n_rows style in
  { name = name ^ Placement.style_name style;
    bundle =
      bundle_of_input (Placement.to_flow_input ~netlist ~dims:Dims.default ~constraints placed);
    timing_driven }

(* Table 2 "with constraints": the paper's five cases. *)
let paper_timed () =
  let c1 = suite_circuit "C1" and c2 = suite_circuit "C2" in
  let c3 = suite_circuit "C3" in
  let case = suite_case ~timing_driven:true in
  [ case c1 ~name:"C1" Placement.P1;
    case c1 ~name:"C1" Placement.P2;
    case c2 ~name:"C2" Placement.P1;
    case c2 ~name:"C2" Placement.P2;
    case c3 ~name:"C3" Placement.P1 ]

(* About three times C3: 1,500 comb gates, ~1,700 cells and ~1,600
   nets on 20 rows.  Routed without constraints, so the limits only
   measure the result.  They are calibrated like the suite's, with more
   headroom: at the suite's 18 % the unconstrained routing misses every
   limit, and [constraints_met] would read 0. *)
let scale_params =
  { Circuit_gen.default_params with
    Circuit_gen.seed = 1500L;
    n_comb = 1500;
    n_ff = 188;
    n_inputs = 24;
    n_outputs = 24;
    n_levels = 8;
    n_diff_pairs = 12;
    n_constraints = 12 }

let scale_untimed () =
  let netlist, raw = Circuit_gen.generate scale_params in
  let placed = Placement.place ~netlist ~n_rows:20 Placement.P1 in
  let input = Placement.to_flow_input ~netlist ~dims:Dims.default ~constraints:raw placed in
  let constraints = Calibrate.against_reference_route ~input ~headroom:0.28 in
  [ { name = "S1500P1"; bundle = bundle_of_input { input with Flow.constraints }; timing_driven = false } ]

let workloads = [ "paper_timed"; "scale_untimed" ]

let rotate ~seed l =
  let n = List.length l in
  let k = ((seed mod n) + n) mod n in
  List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l

let designs ~workload ~seed =
  rotate ~seed
    (match workload with
    | "paper_timed" -> paper_timed ()
    | "scale_untimed" -> scale_untimed ()
    | w -> invalid_arg ("unknown workload " ^ w))

(* The job pool of the serve drive that traced runs make: four
   MINI-sized bundles and one C1-sized one.  Submitted round-robin,
   four in five jobs queue behind a MINI job, so the latency median sits
   well inside one mode of the bimodal distribution instead of on the
   edge between two. *)
let serve_pool ~seed =
  let mini = suite_circuit "MINI" and c1 = suite_circuit "C1" in
  let case = suite_case ~timing_driven:true in
  let mini_p1 = case mini ~name:"MINI" Placement.P1 and mini_p2 = case mini ~name:"MINI" Placement.P2 in
  rotate ~seed [ mini_p1; mini_p2; mini_p1; mini_p2; case c1 ~name:"C1" Placement.P1 ]
