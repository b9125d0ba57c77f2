(* Process-global tracer + metrics registry.  See obs.mli for the
   ownership and failure-policy contract.  The one invariant that
   matters: nothing in here may influence a routing decision. *)

(* ------------------------------------------------------------------ *)
(* Clock                                                              *)
(* ------------------------------------------------------------------ *)

let test_clock : (unit -> float) option ref = ref None

let clock_mutex = Mutex.create ()

let last_now = ref neg_infinity

let now_s () =
  match !test_clock with
  | Some f -> f ()
  | None ->
      (* Monotonicize: gettimeofday can step backwards under NTP; a
         negative span duration would corrupt trace files. *)
      Mutex.lock clock_mutex;
      let t = Unix.gettimeofday () in
      let t = if t > !last_now then ( last_now := t; t ) else !last_now in
      Mutex.unlock clock_mutex;
      t

let set_clock_for_tests c = test_clock := c

(* ------------------------------------------------------------------ *)
(* Global switches                                                    *)
(* ------------------------------------------------------------------ *)

let enabled_flag = ref false

let enabled () = !enabled_flag

let worker_probe = ref (fun () -> false)

let set_worker_probe f = worker_probe := f

let in_worker () = !worker_probe ()

(* Drop hot-path records while disabled or on a pool worker. *)
let skip_record () = (not !enabled_flag) || in_worker ()

(* The serving daemon records metrics from two domains (the socket
   event loop and the job executor), so the warning list and the
   metrics registry serialize on one coarse mutex.  The tracer's scope
   stack stays single-domain property of whoever emits spans (the
   orchestrator / job executor) — only its sink writes run under the
   lock via [emit]'s caller. *)
let reg_mutex = Mutex.create ()

let locked f =
  Mutex.lock reg_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_mutex) f

let warnings_rev = ref []

let warnings () = locked (fun () -> List.rev !warnings_rev)

let warn fmt =
  Printf.ksprintf (fun s -> locked (fun () -> warnings_rev := s :: !warnings_rev)) fmt

(* Atomic durable rewrite (temp + fsync + rename): a scrape target or
   a flight-record dump must never be observable as zero-length, even
   across a power loss — the fsync of the temp file *before* the
   rename is what makes the rename a real commit point. *)
let write_file_atomic path s =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match
     output_string oc s;
     flush oc;
     try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()
   with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    raise e);
  Sys.rename tmp path

let assert_orchestrator ~what =
  if in_worker () then
    Bgr_error.raise_error Internal
      "Obs.%s called from inside a pool worker; the tracer and registry belong to the orchestrator"
      what

(* ------------------------------------------------------------------ *)
(* Tracer                                                             *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  type attr = Str of string | Int of int | Float of float | Bool of bool

  let attr_to_string = function
    | Str s -> s
    | Int i -> string_of_int i
    | Float f -> Qjson.to_string (Qjson.num f)
    | Bool b -> string_of_bool b

  type span = {
    sp_name : string;
    sp_start_us : float;
    sp_dur_us : float;
    sp_depth : int;
    sp_id : int;
    sp_parent : int;
    sp_pid : int;
    sp_attrs : (string * attr) list;
  }

  (* Trace epoch: fixed by the first [enable] after a reset. *)
  let epoch = ref nan

  let epoch_s () = !epoch

  type scope = {
    sc_name : string;
    sc_start : float;  (* absolute seconds *)
    sc_id : int;
    mutable sc_attrs : (string * attr) list;
  }

  let stack : scope list ref = ref []

  (* Span ids are process-local ordinals; a merged multi-process
     timeline keys spans by (pid, id).  [foreign_parent] links a
     process's depth-0 spans under a span of another process (the
     supervisor hands its serve.worker span id to the worker). *)
  let span_seq = ref 0

  let process_pid = ref 1

  let set_pid pid = process_pid := pid

  let trace_ident : string option ref = ref None

  let set_trace_id tid = trace_ident := tid

  let trace_id () = !trace_ident

  let foreign_parent : int option ref = ref None

  let set_parent_span p = foreign_parent := p

  let current_span_id () =
    match !stack with top :: _ -> Some top.sc_id | [] -> None

  let parent_of_stack () =
    match !stack with
    | top :: _ -> top.sc_id
    | [] -> ( match !foreign_parent with Some p -> p | None -> 0 )

  let retained_cap = 100_000

  let completed_rev = ref []

  let completed_n = ref 0

  let completed () = List.rev !completed_rev

  (* ---- sinks ---- *)

  type sink = {
    sk_what : string;  (* "chrome" | "jsonl" *)
    sk_oc : out_channel;
    mutable sk_first : bool;  (* chrome: no comma before first event *)
  }

  let chrome_sink : sink option ref = ref None

  let jsonl_sink : sink option ref = ref None

  (* Any failure inside [f] kills the sink: close quietly, warn once,
     keep routing.  The obs.sink fault plugs in here so the degradation
     path is testable. *)
  let sink_guard slot f =
    match !slot with
    | None -> ()
    | Some sk -> (
        try
          Fault.check ~phase:"obs" "obs.sink";
          f sk
        with e ->
          slot := None;
          (try close_out_noerr sk.sk_oc with _ -> ());
          warn "trace sink (%s) failed and was disabled: %s" sk.sk_what
            (match e with
            | Bgr_error.Error err -> err.Bgr_error.message
            | Sys_error m -> m
            | e -> Printexc.to_string e))

  let open_sink slot ~what ~path ~header =
    assert_orchestrator ~what:"Trace.open_sink";
    (match !slot with
    | Some sk ->
        warn "%s trace sink reopened at %s; the previous sink was closed and its tail may be incomplete"
          what path;
        (try close_out_noerr sk.sk_oc with _ -> ());
        slot := None
    | None -> ());
    match open_out path with
    | oc ->
        output_string oc header;
        slot := Some { sk_what = what; sk_oc = oc; sk_first = true }
    | exception Sys_error m -> warn "cannot open %s trace sink %s: %s" what path m

  let to_chrome_file path = open_sink chrome_sink ~what:"chrome" ~path ~header:"[\n"

  let to_jsonl_file path = open_sink jsonl_sink ~what:"jsonl" ~path ~header:""

  let close_sinks () =
    sink_guard chrome_sink (fun sk -> output_string sk.sk_oc "\n]\n");
    List.iter
      (fun slot ->
        Option.iter
          (fun sk ->
            (try close_out sk.sk_oc with Sys_error m -> warn "closing %s trace sink: %s" sk.sk_what m);
            slot := None)
          !slot)
      [ chrome_sink; jsonl_sink ]

  (* ---- event emission ---- *)

  (* Span times are kept to whole nanoseconds in every sink. *)
  let us_json v = Qjson.num (Float.round (v *. 1e3) /. 1e3)

  let attr_json = function
    | Str s -> Qjson.Str s
    | Int i -> Qjson.int i
    | Float f -> Qjson.num f
    | Bool b -> Qjson.Bool b

  let args_json = function
    | [] -> []
    | attrs -> [ ("args", Qjson.Obj (List.map (fun (k, v) -> (k, attr_json v)) attrs)) ]

  let chrome_event sp =
    let ph, extra =
      if sp.sp_dur_us = 0.0 then ("i", ("s", Qjson.Str "t")) else ("X", ("dur", us_json sp.sp_dur_us))
    in
    Qjson.to_string
      (Qjson.Obj
         ([ ("name", Qjson.Str sp.sp_name); ("cat", Qjson.Str "bgr"); ("ph", Qjson.Str ph);
            ("pid", Qjson.int sp.sp_pid); ("tid", Qjson.int 1); ("ts", us_json sp.sp_start_us); extra ]
         @ args_json sp.sp_attrs))

  let jsonl_line sp =
    Qjson.to_string
      (Qjson.Obj
         ([ ("name", Qjson.Str sp.sp_name); ("start_us", us_json sp.sp_start_us);
            ("dur_us", us_json sp.sp_dur_us); ("depth", Qjson.int sp.sp_depth);
            ("id", Qjson.int sp.sp_id); ("parent", Qjson.int sp.sp_parent);
            ("pid", Qjson.int sp.sp_pid) ]
         @ args_json sp.sp_attrs))
    ^ "\n"

  let emit sp =
    if !completed_n < retained_cap then begin
      completed_rev := sp :: !completed_rev;
      incr completed_n
    end;
    sink_guard chrome_sink (fun sk ->
        if sk.sk_first then sk.sk_first <- false else output_string sk.sk_oc ",\n";
        output_string sk.sk_oc (chrome_event sp));
    sink_guard jsonl_sink (fun sk -> output_string sk.sk_oc (jsonl_line sp))

  let rel_us t = (t -. !epoch) *. 1e6

  (* Bake the ambient trace id into the span's attributes so every
     sink (and the retained list) carries the correlation key. *)
  let with_trace_id attrs =
    match !trace_ident with
    | None -> attrs
    | Some tid ->
        if List.mem_assoc "trace_id" attrs then attrs
        else attrs @ [ ("trace_id", Str tid) ]

  let record name ~start_us ~dur_us ~depth ~id ~parent attrs =
    emit
      { sp_name = name; sp_start_us = start_us; sp_dur_us = dur_us; sp_depth = depth; sp_id = id;
        sp_parent = parent; sp_pid = !process_pid; sp_attrs = with_trace_id attrs }

  let span ?(attrs = []) name f =
    if skip_record () then f ()
    else begin
      let parent = parent_of_stack () in
      incr span_seq;
      let sc = { sc_name = name; sc_start = now_s (); sc_id = !span_seq; sc_attrs = attrs } in
      let depth = List.length !stack in
      stack := sc :: !stack;
      Fun.protect
        ~finally:(fun () ->
          (match !stack with top :: rest when top == sc -> stack := rest | _ -> ());
          let stop = now_s () in
          record name ~start_us:(rel_us sc.sc_start) ~dur_us:((stop -. sc.sc_start) *. 1e6) ~depth
            ~id:sc.sc_id ~parent sc.sc_attrs)
        f
    end

  let instant ?(attrs = []) name =
    if not (skip_record ()) then begin
      let parent = parent_of_stack () in
      incr span_seq;
      record name ~start_us:(rel_us (now_s ())) ~dur_us:0.0 ~depth:(List.length !stack)
        ~id:!span_seq ~parent attrs
    end

  (* A span recorded by another process (already carrying its own id,
     parent and pid), re-emitted into this process's retained list and
     sinks.  Timestamps must already be re-based onto this process's
     epoch by the caller.  No-op while disabled. *)
  let emit_foreign sp = if !enabled_flag then emit sp

  let add_attr k v =
    if not (skip_record ()) then
      match !stack with
      | top :: _ -> top.sc_attrs <- top.sc_attrs @ [ (k, v) ]
      | [] -> ()

  let reset () =
    stack := [];
    completed_rev := [];
    completed_n := 0;
    span_seq := 0;
    trace_ident := None;
    foreign_parent := None;
    epoch := nan
end

let enable () =
  enabled_flag := true;
  if Float.is_nan !Trace.epoch then Trace.epoch := now_s ()

let disable () = enabled_flag := false

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  type kind = Counter | Gauge | Histogram of float array

  type series = {
    se_labels : (string * string) list;  (* sorted by key *)
    mutable se_value : float;  (* counter/gauge value; histogram sum *)
    se_buckets : int array;  (* per-bucket counts, last = +Inf; [||] otherwise *)
    mutable se_count : int;  (* histogram observation count *)
  }

  type family = {
    f_name : string;
    f_help : string;
    f_kind : kind;
    f_labelnames : string list;  (* sorted *)
    mutable f_series_rev : series list;
  }

  let registry : (string, family) Hashtbl.t = Hashtbl.create 32

  let order_rev : string list ref = ref []

  let default_buckets =
    [| 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3; 5e-3; 1e-2; 2.5e-2; 5e-2; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0 |]

  let valid_name n =
    String.length n > 0
    && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
         n

  let kind_name = function
    | Counter -> "counter"
    | Gauge -> "gauge"
    | Histogram _ -> "histogram"

  let same_kind a b =
    match (a, b) with
    | Counter, Counter | Gauge, Gauge -> true
    | Histogram x, Histogram y -> x = y
    | _ -> false

  let fresh_series kind labels =
    let buckets = match kind with Histogram b -> Array.make (Array.length b + 1) 0 | _ -> [||] in
    { se_labels = labels; se_value = 0.0; se_buckets = buckets; se_count = 0 }

  let register ~help ~labels name kind =
    if not (valid_name name) then
      Bgr_error.raise_error Internal "invalid metric name %S" name;
    let sorted_labels = List.sort compare labels in
    let labels = List.sort_uniq compare labels in
    if List.length labels <> List.length sorted_labels then
      Bgr_error.raise_error Internal "duplicate label names on metric %s" name;
    (match kind with
    | Histogram bounds ->
        let rec strictly i =
          i + 1 >= Array.length bounds || (bounds.(i) < bounds.(i + 1) && strictly (i + 1))
        in
        if Array.length bounds = 0 || not (strictly 0) then
          Bgr_error.raise_error Internal
            "histogram %s needs strictly increasing, non-empty bucket bounds" name
    | Counter | Gauge -> ());
    locked @@ fun () ->
    match Hashtbl.find_opt registry name with
    | Some f ->
        if not (same_kind f.f_kind kind) then
          Bgr_error.raise_error Internal "metric %s re-registered as %s, was %s" name
            (kind_name kind) (kind_name f.f_kind);
        if f.f_labelnames <> labels then
          Bgr_error.raise_error Internal "metric %s re-registered with different labels" name;
        f
    | None ->
        let f = { f_name = name; f_help = help; f_kind = kind; f_labelnames = labels; f_series_rev = [] } in
        (* Unlabelled families pre-create their single series so a
           registered-but-quiet metric still renders a zero sample. *)
        if labels = [] then f.f_series_rev <- [ fresh_series kind [] ];
        Hashtbl.add registry name f;
        order_rev := name :: !order_rev;
        f

  let counter ?(help = "") ?(labels = []) name = register ~help ~labels name Counter

  let gauge ?(help = "") ?(labels = []) name = register ~help ~labels name Gauge

  let histogram ?(help = "") ?(labels = []) ?(buckets = default_buckets) name =
    register ~help ~labels name (Histogram (Array.copy buckets))

  let find_series f labels =
    let labels = List.sort compare labels in
    List.find_opt (fun s -> s.se_labels = labels) f.f_series_rev

  let get_series f labels =
    match find_series f labels with
    | Some s -> s
    | None ->
        let labels = List.sort compare labels in
        if List.map fst labels <> f.f_labelnames then
          Bgr_error.raise_error Internal "metric %s expects labels {%s}, got {%s}" f.f_name
            (String.concat "," f.f_labelnames)
            (String.concat "," (List.map fst labels));
        let s = fresh_series f.f_kind labels in
        f.f_series_rev <- s :: f.f_series_rev;
        s

  let inc ?(labels = []) ?(by = 1.0) f =
    if not (skip_record ()) then begin
      (match f.f_kind with
      | Counter -> ()
      | k -> Bgr_error.raise_error Internal "inc on %s metric %s" (kind_name k) f.f_name);
      if by < 0.0 then
        Bgr_error.raise_error Internal "counter %s incremented by negative %g" f.f_name by;
      locked @@ fun () ->
      let s = get_series f labels in
      s.se_value <- s.se_value +. by
    end

  let set ?(labels = []) f v =
    if not (skip_record ()) then begin
      (match f.f_kind with
      | Gauge -> ()
      | k -> Bgr_error.raise_error Internal "set on %s metric %s" (kind_name k) f.f_name);
      locked @@ fun () ->
      let s = get_series f labels in
      s.se_value <- v
    end

  let observe ?(labels = []) f v =
    if not (skip_record ()) then begin
      let bounds =
        match f.f_kind with
        | Histogram b -> b
        | k -> Bgr_error.raise_error Internal "observe on %s metric %s" (kind_name k) f.f_name
      in
      locked @@ fun () ->
      let s = get_series f labels in
      let n = Array.length bounds in
      let i =
        let rec find i = if i >= n then n else if v <= bounds.(i) then i else find (i + 1) in
        find 0
      in
      s.se_buckets.(i) <- s.se_buckets.(i) + 1;
      s.se_value <- s.se_value +. v;
      s.se_count <- s.se_count + 1
    end

  let value ?(labels = []) f =
    locked (fun () ->
        match find_series f labels with Some s -> Some s.se_value | None -> None)

  let histogram_snapshot ?(labels = []) f =
    locked @@ fun () ->
    match (f.f_kind, find_series f labels) with
    | Histogram bounds, Some s -> Some (Array.copy bounds, Array.copy s.se_buckets, s.se_value, s.se_count)
    | _ -> None

  let series f =
    locked (fun () -> List.rev_map (fun s -> (s.se_labels, s.se_value)) f.f_series_rev)

  let reset_values () =
    locked @@ fun () ->
    Hashtbl.iter
      (fun _ f -> f.f_series_rev <- (if f.f_labelnames = [] then [ fresh_series f.f_kind [] ] else []))
      registry

  (* ---- rendering ---- *)

  let prom_escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  (* Prometheus text keeps its own number spelling: it is not JSON, and
     scrapers and the serve load driver read it as is. *)
  let prom_float v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.9g" v

  let label_block ?extra labels =
    let pairs =
      List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v)) labels
      @ match extra with None -> [] | Some kv -> [ kv ]
    in
    match pairs with [] -> "" | pairs -> "{" ^ String.concat "," pairs ^ "}"

  (* first-registration order *)
  let families () = List.rev !order_rev |> List.map (Hashtbl.find registry)

  let render_prometheus () =
    assert_orchestrator ~what:"Metrics.render_prometheus";
    locked @@ fun () ->
    let b = Buffer.create 4096 in
    List.iter
      (fun f ->
        if f.f_help <> "" then
          Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" f.f_name (prom_escape f.f_help));
        Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" f.f_name (kind_name f.f_kind));
        let rows = List.rev f.f_series_rev in
        List.iter
          (fun s ->
            match f.f_kind with
            | Counter | Gauge ->
                Buffer.add_string b
                  (Printf.sprintf "%s%s %s\n" f.f_name (label_block s.se_labels)
                     (prom_float s.se_value))
            | Histogram bounds ->
                let cum = ref 0 in
                Array.iteri
                  (fun i le ->
                    cum := !cum + s.se_buckets.(i);
                    Buffer.add_string b
                      (Printf.sprintf "%s_bucket%s %d\n" f.f_name
                         (label_block ~extra:(Printf.sprintf "le=\"%s\"" (prom_float le)) s.se_labels)
                         !cum))
                  bounds;
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket%s %d\n" f.f_name
                     (label_block ~extra:"le=\"+Inf\"" s.se_labels)
                     s.se_count);
                Buffer.add_string b
                  (Printf.sprintf "%s_sum%s %s\n" f.f_name (label_block s.se_labels)
                     (prom_float s.se_value));
                Buffer.add_string b
                  (Printf.sprintf "%s_count%s %d\n" f.f_name (label_block s.se_labels) s.se_count))
          rows)
      (families ());
    Buffer.contents b

  let render_json () =
    assert_orchestrator ~what:"Metrics.render_json";
    locked @@ fun () ->
    let series_json f s =
      let labels = ("labels", Qjson.Obj (List.map (fun (k, v) -> (k, Qjson.Str v)) s.se_labels)) in
      match f.f_kind with
      | Counter | Gauge -> Qjson.Obj [ labels; ("value", Qjson.Num s.se_value) ]
      | Histogram bounds ->
          let n = Array.length bounds in
          Qjson.Obj
            [ labels; ("count", Qjson.int s.se_count); ("sum", Qjson.Num s.se_value);
              ( "buckets",
                Qjson.Arr
                  (List.init n (fun i -> Qjson.Arr [ Qjson.Num bounds.(i); Qjson.int s.se_buckets.(i) ]))
              );
              ("overflow", Qjson.int s.se_buckets.(n)) ]
    in
    Qjson.to_string
      (Qjson.Obj
         [ ( "metrics",
             Qjson.Arr
               (List.map
                  (fun f ->
                    Qjson.Obj
                      [ ("name", Qjson.Str f.f_name); ("kind", Qjson.Str (kind_name f.f_kind));
                        ("series", Qjson.Arr (List.rev_map (series_json f) f.f_series_rev)) ])
                  (families ())) ) ])

  (* ---- merging another process's [render_json] ---- *)

  exception Undecodable of string

  (* [render_json]'s document back as [(name, kind, series)] per
     family, a series being its labels, value (a histogram's sum),
     count and per-bucket counts with the overflow bucket last. *)
  let decode_json text =
    let bad fmt = Printf.ksprintf (fun m -> raise (Undecodable m)) fmt in
    let get conv k j =
      match Option.bind (Qjson.member k j) conv with Some v -> v | None -> bad "missing or bad %S" k
    in
    let doc = match Qjson.parse text with Ok d -> d | Error m -> bad "%s" m in
    List.map
      (fun fj ->
        let name = get Qjson.to_str "name" fj and kind = get Qjson.to_str "kind" fj in
        let series =
          List.map
            (fun sj ->
              let labels =
                List.map
                  (fun (k, v) -> match v with Qjson.Str v -> (k, v) | _ -> bad "%s: bad label %S" name k)
                  (get Qjson.to_obj "labels" sj)
              in
              if kind <> "histogram" then ((labels, get Qjson.to_float "value" sj, 0, [||]), [||])
              else
                let pairs =
                  List.map
                    (function
                      | Qjson.Arr [ Qjson.Num b; Qjson.Num c ] when Float.is_integer c -> (b, int_of_float c)
                      | _ -> bad "%s: bad bucket" name)
                    (get Qjson.to_list "buckets" sj)
                in
                let counts = List.map snd pairs @ [ get Qjson.to_int "overflow" sj ] in
                ( (labels, get Qjson.to_float "sum" sj, get Qjson.to_int "count" sj, Array.of_list counts),
                  Array.of_list (List.map fst pairs) ))
            (get Qjson.to_list "series" fj)
        in
        let kind =
          match (kind, series) with
          | "counter", _ -> Counter
          | "gauge", _ -> Gauge
          | "histogram", [] -> Histogram [||]
          | "histogram", (_, bounds) :: rest ->
              if List.exists (fun (_, b) -> b <> bounds) rest then bad "%s: series disagree on buckets" name;
              Histogram bounds
          | k, _ -> bad "%s: unknown kind %S" name k
        in
        (name, kind, List.map fst series))
      (get Qjson.to_list "metrics" doc)

  let merge_json ?(source = "worker") text =
    assert_orchestrator ~what:"Metrics.merge_json";
    let bad fmt = Printf.ksprintf (fun m -> warn "metrics merge (%s): %s" source m) fmt in
    match decode_json text with
    | exception Undecodable m ->
        bad "%s" m;
        0
    | fams ->
        let merged = ref 0 in
        List.iter
          (fun (name, kind, series) ->
            (* no series, nothing to add: a labelled family's label names are unknown *)
            if series <> [] then
              let (labels, _, _, _) = List.hd series in
              match register ~help:"" ~labels:(List.map fst labels) name kind with
              | exception Bgr_error.Error e ->
                  bad "family %s incompatible with registry: %s" name e.Bgr_error.message
              | f ->
                  List.iter
                    (fun (labels, v, count, bk) ->
                      let applied =
                        locked @@ fun () ->
                        List.sort compare (List.map fst labels) = f.f_labelnames
                        &&
                        let s = get_series f labels in
                        match f.f_kind with
                        | Counter -> s.se_value <- s.se_value +. v; true
                        | Gauge -> s.se_value <- v; true
                        | Histogram _ ->
                            Array.length bk = Array.length s.se_buckets
                            && begin
                                 Array.iteri (fun i c -> s.se_buckets.(i) <- s.se_buckets.(i) + c) bk;
                                 s.se_value <- s.se_value +. v;
                                 s.se_count <- s.se_count + count;
                                 true
                               end
                      in
                      if applied then incr merged
                      else bad "series of %s skipped (label or bucket mismatch)" name)
                    series)
          fams;
        !merged
end

let reset () =
  assert_orchestrator ~what:"reset";
  Trace.close_sinks ();
  Trace.reset ();
  Metrics.reset_values ();
  warnings_rev := [];
  if !enabled_flag then Trace.epoch := now_s ()
