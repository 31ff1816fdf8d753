open Spm_graph

type t = { dh : int array; dt : int array }

let init p ~head ~tail =
  { dh = Bfs.distances p head; dt = Bfs.distances p tail }

let recompute = init

let dh t v = t.dh.(v)
let dt t v = t.dt.(v)

let copy t = { dh = Array.copy t.dh; dt = Array.copy t.dt }

let extend_new_vertex t ~host =
  let n = Array.length t.dh in
  let dh = Array.make (n + 1) 0 and dt = Array.make (n + 1) 0 in
  Array.blit t.dh 0 dh 0 n;
  Array.blit t.dt 0 dt 0 n;
  dh.(n) <- t.dh.(host) + 1;
  dt.(n) <- t.dt.(host) + 1;
  { dh; dt }

let relax queue p' dist u v =
  Queue.clear queue;
  let try_improve a b =
    if dist.(b) > dist.(a) + 1 then begin
      dist.(b) <- dist.(a) + 1;
      Queue.add b queue
    end
  in
  try_improve u v;
  try_improve v u;
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    Graph.iter_adj p' x (fun y -> try_improve x y)
  done

let extend_close_edge ~queue p' t u v =
  let t = copy t in
  relax queue p' t.dh u v;
  relax queue p' t.dt u v;
  t

let equal a b = a.dh = b.dh && a.dt = b.dt

let pp ppf t =
  Format.fprintf ppf "@[<v>dh: %s@,dt: %s@]"
    (String.concat " " (Array.to_list (Array.map string_of_int t.dh)))
    (String.concat " " (Array.to_list (Array.map string_of_int t.dt)))
