(* The repository's benchmark.

     bench --workload certify|simulate|campaign --seed N
           --seconds S --trace 0|1

   Runs one workload for S seconds on inputs derived from N, checks every
   output, and prints a human-readable summary followed by one JSON line:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
   are the end-to-end metrics of BENCHMARK.json, measured with tracing off;
   with --trace 1 they are its per-layer metrics, from a traced run whose
   spans are also written to _build/perfbench/<workload>-<seed>.trace.json.
   Metric names and units are read from BENCHMARK.json, so the output always
   matches the benchmark's declaration. *)

open Perfbench
module Value = Stateless_campaign.Value
module Bench_json = Stateless_core.Bench_json

let workloads =
  [
    ("certify", Certify.run);
    ("simulate", Simulate.run);
    ("campaign", Matrix.run);
  ]

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

let usage () =
  fail
    "usage: bench --workload %s --seed N --seconds S --trace 0|1"
    (String.concat "|" (List.map fst workloads))

let args () =
  let rec go acc = function
    | [] -> acc
    | key :: v :: rest
      when List.mem key [ "--workload"; "--seed"; "--seconds"; "--trace" ] ->
        go ((key, v) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get key = match List.assoc_opt key kv with Some v -> v | None -> usage () in
  let int key =
    match int_of_string_opt (get key) with Some n -> n | None -> usage ()
  in
  let run =
    match List.assoc_opt (get "--workload") workloads with
    | Some run -> run
    | None -> usage ()
  in
  let seconds = int "--seconds" and trace = int "--trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (get "--workload", run, int "--seed", float seconds, trace = 1)

(* (name, unit) of every metric of one section of BENCHMARK.json. *)
let catalogue section =
  let text =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error e -> fail "cannot read BENCHMARK.json: %s" e
  in
  let str key v =
    match Value.member key v with Some (Value.String s) -> s | _ -> raise Exit
  in
  (* the journal's value parser reads one-line JSON *)
  let one_line = String.map (function '\n' | '\r' -> ' ' | c -> c) text in
  match Option.bind (Value.parse one_line) (Value.member section) with
  | Some (Value.List items) -> (
      try List.map (fun m -> (str "name" m, str "unit" m)) items
      with Exit -> fail "BENCHMARK.json: malformed %s entry" section)
  | _ -> fail "BENCHMARK.json: no %s list" section

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let () =
  let name, run, seed, seconds, trace = args () in
  let out_dir = Filename.concat "_build" "perfbench" in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let declared = catalogue (if trace then "per_layer" else "end_to_end") in
  let r : Common.result = run ~seed ~seconds ~trace in
  let failed_frac = float r.failed /. float (max 1 r.attempted) in
  let measured =
    if trace then r.layers
    else
      [
        ("setup_s", r.setup_s);
        ("work_per_s", r.work_per_s);
        ("peak_rss_mb", float (Bench_json.peak_rss_kb ()) /. 1024.);
      ]
  in
  List.iter
    (fun (m, _) ->
      if not (List.mem_assoc m declared) then
        fail "metric %s is not declared in BENCHMARK.json" m)
    measured;
  Printf.printf "workload %s, seed %d, %.0f s%s\n" name seed seconds
    (if trace then ", traced" else "");
  if not trace then begin
    let sorted = Array.of_list r.batch_rates in
    Array.sort compare sorted;
    let q per10k = Stats.nearest_rank sorted ~per10k in
    Printf.printf
      "  %s_per_s = %.6g %s/s (%d batches rated min %.6g, q1 %.6g, q3 %.6g, \
       max %.6g)\n"
      r.work_unit r.work_per_s r.work_unit (Array.length sorted) sorted.(0)
      (q 2500) (q 7500)
      sorted.(Array.length sorted - 1)
  end;
  if not trace then
    List.iter
      (fun (name, v, unit) -> Printf.printf "  %s = %.6g %s\n" name v unit)
      r.notes;
  Printf.printf "  failed_frac = %g ratio (%d of %d checks failed)\n"
    failed_frac r.failed r.attempted;
  let metrics =
    List.map
      (fun (m, unit) ->
        let v = Option.value ~default:0. (List.assoc_opt m measured) in
        let v = if Float.is_finite v then v else 0. in
        Printf.printf "  %s = %.6g %s\n" m v unit;
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m (json_number v)
          unit)
      declared
  in
  if trace then begin
    let path =
      Filename.concat out_dir (Printf.sprintf "%s-%d.trace.json" name seed)
    in
    Trace.write path (Trace.spans ());
    Printf.printf "  spans written to %s\n" path
  end;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", " metrics)
