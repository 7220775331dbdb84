(* Self-time and percentile arithmetic of the benchmark's span recorder. *)

open Perfbench

let close = Alcotest.float 1e-9

let mk ~id ~parent ?(domain = 0) start stop =
  { Trace.id; name = "s"; parent; op = 0; domain; start; stop }

let self_of spans id =
  snd (List.find (fun ((s : Trace.span), _) -> s.id = id) (Trace.self_times spans))

let test_covered () =
  Alcotest.check close "disjoint" 3.
    (Trace.covered ~lo:0. ~hi:10. [ (1., 2.); (4., 6.) ]);
  Alcotest.check close "overlapping merge" 4.
    (Trace.covered ~lo:0. ~hi:10. [ (1., 4.); (2., 5.) ]);
  Alcotest.check close "clipped to the parent" 1.5
    (Trace.covered ~lo:2. ~hi:4. [ (0., 3.); (3.5, 9.) ]);
  Alcotest.check close "empty" 0. (Trace.covered ~lo:0. ~hi:1. [])

let test_self_time () =
  (* root [0,10] with children [1,3] and [2,6] (overlapping, e.g. two
     domains) and a grandchild [4,5] inside the second child *)
  let spans =
    [
      mk ~id:0 ~parent:(-1) 0. 10.;
      mk ~id:1 ~parent:0 1. 3.;
      mk ~id:2 ~parent:0 ~domain:1 2. 6.;
      mk ~id:3 ~parent:2 ~domain:1 4. 5.;
    ]
  in
  Alcotest.check close "root minus union of children" 5. (self_of spans 0);
  Alcotest.check close "leaf" 2. (self_of spans 1);
  Alcotest.check close "inner minus grandchild" 3. (self_of spans 2);
  (* on one domain the self times partition the root's interval *)
  let nested =
    [
      mk ~id:0 ~parent:(-1) 0. 10.;
      mk ~id:1 ~parent:0 1. 4.;
      mk ~id:2 ~parent:1 2. 3.;
      mk ~id:3 ~parent:0 5. 6.;
    ]
  in
  Alcotest.check close "self times sum to the root's span" 10.
    (List.fold_left (fun a (_, s) -> a +. s) 0. (Trace.self_times nested))

let test_recorder () =
  Trace.set_enabled true;
  let v =
    Trace.op "outer" (fun () ->
        Trace.span "inner" (fun () -> 41) + 1)
  in
  Trace.set_enabled false;
  ignore (Trace.span "untraced" (fun () -> ()));
  Alcotest.(check int) "result passes through" 42 v;
  let spans = Trace.spans () in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  let outer = List.find (fun (s : Trace.span) -> s.name = "outer") spans in
  let inner = List.find (fun (s : Trace.span) -> s.name = "inner") spans in
  Alcotest.(check int) "parent" outer.id inner.parent;
  Alcotest.(check int) "shared op" outer.op inner.op;
  Alcotest.(check bool) "nested interval" true
    (outer.start <= inner.start && inner.stop <= outer.stop);
  (* a span on another domain attaches to an explicit frame *)
  Trace.set_enabled true;
  Trace.span "scheduler" (fun () ->
      let under = Trace.here () in
      Domain.join
        (Domain.spawn (fun () -> Trace.op ~under "worker" (fun () -> ()))));
  Trace.set_enabled false;
  let spans = Trace.spans () in
  let find name = List.find (fun (s : Trace.span) -> s.name = name) spans in
  let scheduler = find "scheduler" and worker = find "worker" in
  Alcotest.(check int) "cross-domain parent" scheduler.id worker.parent;
  Alcotest.(check bool) "own operation" true (worker.op <> scheduler.op);
  Alcotest.(check bool) "recorded on the worker" true
    (worker.domain <> scheduler.domain)

let test_percentiles () =
  let xs n = List.init n (fun i -> float (i + 1)) in
  Alcotest.check close "odd median" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.check close "even median" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  let t = Stats.tail (xs 100) in
  Alcotest.(check int) "count" 100 t.n;
  Alcotest.check close "p50 of 1..100" 50. t.p50;
  Alcotest.check close "p90 has exactly ten beyond" 90. t.tail_pct;
  Alcotest.check close "p90 of 1..100" 90. t.tail;
  let t = Stats.tail (xs 1009) in
  Alcotest.check close "p99 once ten lie beyond it" 99. t.tail_pct;
  Alcotest.check close "p99 of 1..1009" 999. t.tail;
  let t = Stats.tail (xs 1000) in
  Alcotest.check close "p99 of 1000 keeps ten beyond" 99. t.tail_pct;
  let t = Stats.tail (xs 19) in
  Alcotest.check close "too few for p90: median" 50. t.tail_pct;
  Alcotest.check close "tail is the median" t.p50 t.tail

let () =
  Alcotest.run "perfbench"
    [
      ( "trace",
        [
          Alcotest.test_case "interval union" `Quick test_covered;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder nesting" `Quick test_recorder;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick test_percentiles;
        ] );
    ]
