(* The benchmark's own spans, kept in memory and written once at the
   end.  They are recorded from the benchmark's code around calls into
   the repo's public functions; the program under test is not
   instrumented (its own [Obs] tracer stays off). *)

type span = {
  name : string;
  start_us : float;
  stop_us : float;
  id : int;
  parent : int;  (** [0] = root *)
  pid : int;
  workload : string;
  design : string;
}

let now_us () = Unix.gettimeofday () *. 1e6
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let workload = ref ""

let current () = match !stack with id :: _ -> id | [] -> 0

let fresh_id () =
  incr next_id;
  !next_id

let add ?(design = "") ?parent ~name ~start_us ~stop_us () =
  let id = fresh_id () in
  let parent = Option.value parent ~default:(current ()) in
  spans :=
    { name; start_us; stop_us; id; parent; pid = Unix.getpid (); workload = !workload; design }
    :: !spans;
  id

(* Time [f] as a span; nested [with_span] calls become its children. *)
let with_span ?design name f =
  let id = fresh_id () in
  let parent = current () in
  let start_us = now_us () in
  stack := id :: !stack;
  let finish () =
    stack := List.tl !stack;
    spans :=
      { name; start_us; stop_us = now_us (); id; parent; pid = Unix.getpid ();
        workload = !workload; design = Option.value design ~default:"" }
      :: !spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* --- transport between processes ------------------------------------- *)

let to_json s =
  Qjson.Arr
    [ Qjson.Str s.name; Qjson.num s.start_us; Qjson.num s.stop_us; Qjson.int s.id;
      Qjson.int s.parent; Qjson.int s.pid; Qjson.Str s.workload; Qjson.Str s.design ]

let of_json = function
  | Qjson.Arr
      [ Qjson.Str name; Qjson.Num start_us; Qjson.Num stop_us; Qjson.Num id; Qjson.Num parent;
        Qjson.Num pid; Qjson.Str workload; Qjson.Str design ] ->
    Some
      { name; start_us; stop_us; id = int_of_float id; parent = int_of_float parent;
        pid = int_of_float pid; workload; design }
  | _ -> None

(* Adopt a child process's spans: they get fresh ids in this process's
   id space and its workload, and the child's roots hang under
   [parent]. *)
let adopt ~parent child =
  let ids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace ids s.id (fresh_id ())) child;
  List.iter
    (fun s ->
      let parent = Option.value (Hashtbl.find_opt ids s.parent) ~default:parent in
      spans := { s with id = Hashtbl.find ids s.id; parent; workload = !workload } :: !spans)
    child

(* --- output ------------------------------------------------------------ *)

(* Chrome trace_event JSON (opens in Perfetto): one complete event per
   span, one track per process. *)
let chrome_json all =
  let ev s =
    Qjson.Obj
      [ ("name", Qjson.Str s.name); ("ph", Qjson.Str "X"); ("ts", Qjson.num s.start_us);
        ("dur", Qjson.num (s.stop_us -. s.start_us)); ("pid", Qjson.int s.pid);
        ("tid", Qjson.int s.pid);
        ( "args",
          Qjson.Obj
            [ ("id", Qjson.int s.id); ("parent", Qjson.int s.parent);
              ("workload", Qjson.Str s.workload); ("design", Qjson.Str s.design) ] ) ]
  in
  Qjson.to_string (Qjson.Obj [ ("traceEvents", Qjson.Arr (List.map ev all)) ])

(* Self time of a span: its duration minus the part of it that its
   children cover (children may overlap, as concurrent jobs do).
   Returns (name, count, total_s, self_s), largest self time first. *)
let self_times all =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          ((s.start_us, s.stop_us)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    all;
  let covered id =
    let intervals = List.sort compare (Option.value (Hashtbl.find_opt children id) ~default:[]) in
    fst
      (List.fold_left
         (fun (total, reach) (a, b) ->
           let a = Float.max a reach in
           if b > a then (total +. (b -. a), b) else (total, reach))
         (0.0, neg_infinity) intervals)
  in
  let acc = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let dur = s.stop_us -. s.start_us in
      let n, tot, self = Option.value (Hashtbl.find_opt acc s.name) ~default:(0, 0.0, 0.0) in
      Hashtbl.replace acc s.name
        (n + 1, tot +. (dur /. 1e6), self +. ((dur -. covered s.id) /. 1e6)))
    all;
  Hashtbl.fold (fun name (n, tot, self) l -> (name, n, tot, self) :: l) acc []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)
