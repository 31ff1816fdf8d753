(* Spans recorded by the benchmark around its calls into the program's
   layers. Kept in memory and written once, at the end of a traced run. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  req : int;  (** request or item id the span serves; -1 for none *)
  start : float;
  mutable stop : float;
}

let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

(* Time [f ()] as span [name] under the innermost open span. *)
let span ?(req = -1) name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let s = { id; name; parent; req; start = Unix.gettimeofday (); stop = 0.0 } in
  stack := id :: !stack;
  Fun.protect
    ~finally:(fun () ->
      s.stop <- Unix.gettimeofday ();
      stack := List.tl !stack;
      spans := s :: !spans)
    f

let duration s = s.stop -. s.start

let all () = List.rev !spans

(* Length of the union of [intervals]. *)
let covered intervals =
  let sorted = List.sort compare intervals in
  fst
    (List.fold_left
       (fun (total, reach) (a, b) ->
         if b <= reach then (total, reach)
         else (total +. (b -. Float.max a reach), b))
       (0.0, neg_infinity) sorted)

(* Each span's duration minus the part of it its children cover. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun c -> Hashtbl.add children c.parent (c.start, c.stop))
    spans;
  fun s -> duration s -. covered (Hashtbl.find_all children s.id)

let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (duration s) else None)
    (all ())

let total name = List.fold_left ( +. ) 0.0 (durations name)

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let spans = all () in
      let self_time = self_times spans in
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\": %d, \"name\": %S, \"parent\": %d, \"req\": %d, \
             \"start\": %.6f, \"end\": %.6f, \"self_s\": %.9f}\n"
            (if i = 0 then "" else ",")
            s.id s.name s.parent s.req s.start s.stop (self_time s))
        spans;
      output_string oc "]\n")
