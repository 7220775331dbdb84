let clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  name : string;
  parent : int;
  op : int;
  domain : int;
  start : float;
  stop : float;
}

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on
let next_id = Atomic.make 0
let next_op = Atomic.make 0
let mu = Mutex.create ()
let recorded : span list ref = ref []

type frame = { span_id : int; op_id : int }

let root = { span_id = -1; op_id = -1 }
let current = Domain.DLS.new_key (fun () -> root)
let here () = Domain.DLS.get current

let record ?under ~new_op name f =
  let saved = here () in
  let outer = Option.value under ~default:saved in
  let id = Atomic.fetch_and_add next_id 1 in
  let op = if new_op then Atomic.fetch_and_add next_op 1 else outer.op_id in
  Domain.DLS.set current { span_id = id; op_id = op };
  let start = clock () in
  let finish () =
    let stop = clock () in
    Domain.DLS.set current saved;
    let s =
      {
        id;
        name;
        parent = outer.span_id;
        op;
        domain = (Domain.self () :> int);
        start;
        stop;
      }
    in
    Mutex.protect mu (fun () -> recorded := s :: !recorded)
  in
  Fun.protect ~finally:finish f

let span ?under name f =
  if Atomic.get on then record ?under ~new_op:false name f else f ()

let op ?under name f =
  if Atomic.get on then record ?under ~new_op:true name f else f ()

let spans () = Mutex.protect mu (fun () -> !recorded)

let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let rec sweep acc a b = function
    | [] -> acc +. (b -. a)
    | (a', b') :: rest ->
        if a' <= b then sweep acc a (Float.max b b') rest
        else sweep (acc +. (b -. a)) a' b' rest
  in
  match List.sort compare clipped with
  | [] -> 0.
  | (a, b) :: rest -> sweep 0. a b rest

let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

let write path spans =
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[";
      List.iteri
        (fun i (s, self) ->
          Printf.fprintf oc
            "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\
             \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\
             \"self_us\":%.3f}}"
            (if i = 0 then "" else ",")
            s.name s.domain
            ((s.start -. t0) *. 1e6)
            ((s.stop -. s.start) *. 1e6)
            s.id s.parent s.op (self *. 1e6))
        (self_times (List.sort (fun a b -> compare a.id b.id) spans));
      output_string oc "\n]}\n")
