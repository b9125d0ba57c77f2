(* The spool's [bgr-job 1] manifest codec (docs/FORMATS.md).  It lives
   below both the serving layer, which writes and reads manifests, and
   the forensics layer, which reads them from dead job directories. *)

type job = {
  j_id : string;
  j_timing_driven : bool;
  j_deadline_ms : int option;
  j_attempts : int;
  j_kills : int;
  j_last_kill : string;
  j_kill_history : string list;
}

(* [kills]/[last_kill] were added after manifests already existed on
   disk, so they are only written when meaningful and are optional on
   parse — a pre-existing JOB file still loads. *)
let job_string j =
  let base =
    Printf.sprintf "bgr-job 1\nid %s\ntiming_driven %b\ndeadline_ms %d\nattempts %d\n"
      j.j_id j.j_timing_driven
      (match j.j_deadline_ms with None -> 0 | Some ms -> ms)
      j.j_attempts
  in
  if j.j_kills = 0 && j.j_last_kill = "" then base
  else
    Printf.sprintf "%skills %d\nlast_kill %s\n%s" base j.j_kills j.j_last_kill
      (* the full reason sequence; reasons come from the kill_reason
         vocabulary (no commas or spaces), joined oldest first *)
      (match j.j_kill_history with
      | [] -> ""
      | h -> Printf.sprintf "kill_history %s\n" (String.concat "," h))

exception Bad of string

let parse_job ?file s =
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  match
    let kv =
      String.split_on_char '\n' s
      |> List.filter_map (fun l ->
             let l = String.trim l in
             if l = "" then None
             else
               match String.index_opt l ' ' with
               | None -> fail "job manifest line %S has no value" l
               | Some i ->
                 Some (String.sub l 0 i, String.trim (String.sub l i (String.length l - i))))
    in
    (match kv with
    | ("bgr-job", "1") :: _ -> ()
    | _ -> fail "not a bgr job manifest (or unsupported version)");
    let get k =
      match List.assoc_opt k kv with
      | Some v -> v
      | None -> fail "job manifest is missing the %s field" k
    in
    let int_of k =
      match int_of_string_opt (get k) with
      | Some v -> v
      | None -> fail "job manifest field %s wants an integer, got %S" k (get k)
    in
    let td =
      match get "timing_driven" with
      | "true" -> true
      | "false" -> false
      | v -> fail "job manifest field timing_driven wants a boolean, got %S" v
    in
    let deadline = int_of "deadline_ms" in
    let kills = if List.mem_assoc "kills" kv then int_of "kills" else 0 in
    { j_id = get "id";
      j_timing_driven = td;
      j_deadline_ms = (if deadline = 0 then None else Some deadline);
      j_attempts = int_of "attempts";
      j_kills = kills;
      j_last_kill = Option.value (List.assoc_opt "last_kill" kv) ~default:"";
      j_kill_history =
        (match List.assoc_opt "kill_history" kv with
        | None | Some "" -> []
        | Some h -> String.split_on_char ',' h) }
  with
  | j -> Ok j
  | exception Bad m -> Error (Bgr_error.make ?file ~phase:"serve" Bgr_error.Parse "%s" m)
