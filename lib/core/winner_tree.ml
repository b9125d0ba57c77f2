(* Implicit complete binary tree: node 1 is the root, node j has
   children 2j and 2j+1, and leaf i is node [base + i] with [base] a
   power of two, so every leaf sits at the same depth and {!update} can
   sweep one level at a time. *)
type t = {
  base : int;
  win : int array;  (* node -> winning leaf, -1 when its subtree is empty *)
  queued : Bytes.t;  (* node -> '\001' while it waits in [level] *)
  mutable level : int array;  (* nodes of the current sweep level *)
  mutable n_level : int;
  mutable next : int array;
}

let create n =
  let base = ref 1 in
  while !base < n do
    base := 2 * !base
  done;
  let base = !base in
  { base;
    win = Array.make (2 * base) (-1);
    queued = Bytes.make (2 * base) '\000';
    level = Array.make base 0;
    n_level = 0;
    next = Array.make base 0 }

let set t i ~occupied =
  let j = t.base + i in
  t.win.(j) <- (if occupied then i else -1);
  if Bytes.get t.queued j = '\000' then begin
    Bytes.set t.queued j '\001';
    t.level.(t.n_level) <- j;
    t.n_level <- t.n_level + 1
  end

let play t ~cmp j =
  let l = t.win.(2 * j) and r = t.win.((2 * j) + 1) in
  t.win.(j) <- (if l < 0 then r else if r < 0 then l else if cmp r l < 0 then r else l)

let update t ~cmp =
  let played = ref 0 in
  while t.n_level > 0 do
    let n = t.n_level in
    t.n_level <- 0;
    for k = 0 to n - 1 do
      let j = t.level.(k) in
      Bytes.set t.queued j '\000';
      let p = j / 2 in
      if p >= 1 && Bytes.get t.queued p = '\000' then begin
        Bytes.set t.queued p '\001';
        t.next.(t.n_level) <- p;
        t.n_level <- t.n_level + 1
      end
    done;
    let level = t.level in
    t.level <- t.next;
    t.next <- level;
    for k = 0 to t.n_level - 1 do
      play t ~cmp t.level.(k)
    done;
    played := !played + t.n_level
  done;
  !played

let winner t = t.win.(1)

let runner_up t ~cmp =
  let w = winner t in
  if w < 0 then -1
  else begin
    let best = ref (-1) and j = ref (t.base + w) in
    while !j > 1 do
      let s = t.win.(!j lxor 1) in
      if s >= 0 && (!best < 0 || cmp s !best < 0) then best := s;
      j := !j / 2
    done;
    !best
  end
