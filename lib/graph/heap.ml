type t = {
  mutable keys : float array;
  mutable payloads : int array;
  mutable size : int;
}

let create () = { keys = Array.make 16 0.0; payloads = Array.make 16 0; size = 0 }
let is_empty t = t.size = 0
let size t = t.size
let clear t = t.size <- 0

let grow t =
  let capacity = Array.length t.keys in
  if t.size = capacity then begin
    let keys = Array.make (2 * capacity) 0.0 in
    let payloads = Array.make (2 * capacity) 0 in
    Array.blit t.keys 0 keys 0 capacity;
    Array.blit t.payloads 0 payloads 0 capacity;
    t.keys <- keys;
    t.payloads <- payloads
  end

let swap t i j =
  let k = t.keys.(i) and p = t.payloads.(i) in
  t.keys.(i) <- t.keys.(j);
  t.payloads.(i) <- t.payloads.(j);
  t.keys.(j) <- k;
  t.payloads.(j) <- p

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.keys.(i) < t.keys.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.size && t.keys.(left) < t.keys.(!smallest) then smallest := left;
  if right < t.size && t.keys.(right) < t.keys.(!smallest) then smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

(* Seat [payload], whose key the caller has just written at [size]. *)
let seat t payload =
  t.payloads.(t.size) <- payload;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let push t key payload =
  grow t;
  t.keys.(t.size) <- key;
  seat t payload

(* [push t dist.(v) v], spelled out so the key is never passed as a
   float argument: across modules that would box it. *)
let push_dist t dist v =
  grow t;
  t.keys.(t.size) <- dist.(v);
  seat t v

let pop_min t =
  if t.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  let payload = t.payloads.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.keys.(0) <- t.keys.(t.size);
    t.payloads.(0) <- t.payloads.(t.size);
    sift_down t 0
  end;
  payload

let pop t =
  if t.size = 0 then None
  else begin
    let key = t.keys.(0) in
    Some (key, pop_min t)
  end
