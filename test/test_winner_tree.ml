(* Winner_tree against a linear scan over random keys, with ties and
   empty leaves. *)

(* The scan's answers: the first strictly best occupied leaf, and the
   best key among the other occupied leaves. *)
let scan keys ~cmp =
  let best = ref (-1) in
  Array.iteri
    (fun i k -> if k <> None && (!best < 0 || cmp i !best < 0) then best := i)
    keys;
  let second = ref (-1) in
  Array.iteri
    (fun i k -> if k <> None && i <> !best && (!second < 0 || cmp i !second < 0) then second := i)
    keys;
  (!best, !second)

let key_cmp keys i j =
  match (keys.(i), keys.(j)) with
  | Some a, Some b -> Int.compare a b
  | _ -> Alcotest.fail "cmp called on an empty leaf"

(* Keys only: ties everywhere.  Total: keys, then leaf index. *)
let total_cmp keys i j =
  let c = key_cmp keys i j in
  if c <> 0 then c else Int.compare i j

let gen =
  QCheck.Gen.(
    let* n = int_range 1 70 in
    let key = opt ~ratio:0.8 (int_range 0 6) in
    let* init = array_size (return n) key in
    let edit = pair (int_bound (n - 1)) key in
    let* edits = list_size (int_range 1 30) (list_size (int_range 1 5) edit) in
    return (init, edits))

let print (init, edits) =
  let key = function None -> "_" | Some k -> string_of_int k in
  Printf.sprintf "n=%d keys=[%s] rounds=%d" (Array.length init)
    (String.concat ";" (Array.to_list (Array.map key init)))
    (List.length edits)

let agrees ~total (init, edits) =
  let keys = Array.copy init in
  let cmp = if total then total_cmp keys else key_cmp keys in
  let tree = Winner_tree.create (Array.length keys) in
  Array.iteri (fun i k -> Winner_tree.set tree i ~occupied:(k <> None)) keys;
  let check () =
    ignore (Winner_tree.update tree ~cmp);
    let best, second = scan keys ~cmp in
    let w = Winner_tree.winner tree and r = Winner_tree.runner_up tree ~cmp in
    w = best
    && (r = second || (r >= 0 && second >= 0 && r <> w && (not total) && cmp r second = 0))
  in
  check ()
  && List.for_all
       (fun round ->
         List.iter
           (fun (i, k) ->
             keys.(i) <- k;
             Winner_tree.set tree i ~occupied:(k <> None))
           round;
         check ())
       edits

let prop ~total name =
  QCheck.Test.make ~name ~count:500 (QCheck.make ~print gen) (agrees ~total)

(* One changed leaf recomputes exactly its ancestors; an update with
   nothing queued recomputes nothing. *)
let test_update_cost () =
  let n = 1000 in
  let keys = Array.init n (fun i -> Some ((i * 7919) mod 101)) in
  let tree = Winner_tree.create n in
  for i = 0 to n - 1 do
    Winner_tree.set tree i ~occupied:true
  done;
  let cmp = total_cmp keys in
  (* 500 + 250 + 125 + 63 + 32 + 16 + 8 + 4 + 2 + 1 ancestors of 1000 leaves *)
  Alcotest.(check int) "full build plays each ancestor once" 1001 (Winner_tree.update tree ~cmp);
  Alcotest.(check int) "nothing queued" 0 (Winner_tree.update tree ~cmp);
  keys.(500) <- Some (-1);
  Winner_tree.set tree 500 ~occupied:true;
  Alcotest.(check int) "one leaf: its 10 ancestors" 10 (Winner_tree.update tree ~cmp);
  Alcotest.(check int) "new best" 500 (Winner_tree.winner tree);
  keys.(500) <- None;
  Winner_tree.set tree 500 ~occupied:false;
  ignore (Winner_tree.update tree ~cmp);
  Alcotest.(check int) "emptied leaf: the scan's winner again" (fst (scan keys ~cmp))
    (Winner_tree.winner tree)

let test_empty () =
  let tree = Winner_tree.create 0 in
  Alcotest.(check int) "no leaves, no winner" (-1) (Winner_tree.winner tree);
  let tree = Winner_tree.create 5 in
  ignore (Winner_tree.update tree ~cmp:(fun _ _ -> Alcotest.fail "no comparison expected"));
  Alcotest.(check int) "all empty, no winner" (-1) (Winner_tree.winner tree);
  Winner_tree.set tree 3 ~occupied:true;
  ignore (Winner_tree.update tree ~cmp:(fun _ _ -> Alcotest.fail "no comparison expected"));
  Alcotest.(check int) "sole leaf wins" 3 (Winner_tree.winner tree);
  Alcotest.(check int) "no runner-up" (-1) (Winner_tree.runner_up tree ~cmp:(fun _ _ -> 0))

let () =
  Alcotest.run "winner_tree"
    [ ( "winner_tree",
        [ QCheck_alcotest.to_alcotest (prop ~total:false "matches the scan, ties to the leftmost");
          QCheck_alcotest.to_alcotest (prop ~total:true "matches the scan under a total order");
          Alcotest.test_case "update cost" `Quick test_update_cost;
          Alcotest.test_case "empty leaves" `Quick test_empty ] ) ]
