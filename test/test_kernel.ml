(* Differential suite: the packed {!Kernel} against the boxed {!Engine} on
   randomized protocols, inputs and schedules, for every evaluation tier
   (direct table / sparse memo / raw scratch); plus {!Parrun} determinism
   and the {!Engine.trace} double-buffering regression. *)

module Protocol = Stateless_core.Protocol
module Engine = Stateless_core.Engine
module Kernel = Stateless_core.Kernel
module Parrun = Stateless_core.Parrun
module Schedule = Stateless_core.Schedule
module Label = Stateless_core.Label
module Fault = Stateless_core.Fault
module Clique_example = Stateless_core.Clique_example
module Proptest = Stateless_core.Proptest
module Batch = Stateless_core.Batch
module Builders = Stateless_graph.Builders
module Digraph = Stateless_graph.Digraph
module Simlab = Stateless_simlab.Simlab
module Contagion = Stateless_games.Contagion
module Best_response = Stateless_games.Best_response

(* ------------------------------------------------------------------ *)
(* Random protocol generator (shared, see lib/core/proptest.ml)        *)
(* ------------------------------------------------------------------ *)

(* This suite uses Proptest's default RNG constants (salt 0x5ca1ab1e,
   graph seed 7*seed+1, names "rand<seed>"). *)
let random_protocol seed = Proptest.random_protocol seed
let random_config = Proptest.random_config
let random_active = Proptest.random_active
let schedules_for seed n = Proptest.schedules_for seed n

(* All three kernel tiers for one protocol: the table/memo/raw choice must
   be observably invisible. *)
let kernels p ~input =
  [
    ("table", Kernel.create p ~input);
    ("memo", Kernel.create ~max_table_words:0 p ~input);
    ("raw", Kernel.create ~max_table_words:0 ~max_memo_entries:0 p ~input);
  ]

(* ------------------------------------------------------------------ *)
(* Equality of results                                                 *)
(* ------------------------------------------------------------------ *)

let config_eq = Proptest.config_eq

let outcome_eq p a b =
  match (a, b) with
  | ( Engine.Stabilized { rounds = r1; config = c1 },
      Engine.Stabilized { rounds = r2; config = c2 } ) ->
      r1 = r2 && config_eq p c1 c2
  | ( Engine.Oscillating { entered = e1; period = q1 },
      Engine.Oscillating { entered = e2; period = q2 } ) ->
      e1 = e2 && q1 = q2
  | Engine.Exhausted c1, Engine.Exhausted c2 -> config_eq p c1 c2
  | _ -> false

let settled_eq p a b =
  match (a, b) with
  | None, None -> true
  | Some s1, Some s2 ->
      s1.Engine.settle_time = s2.Engine.settle_time
      && s1.Engine.settled_outputs = s2.Engine.settled_outputs
      && config_eq p s1.Engine.horizon_config s2.Engine.horizon_config
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Differential tests                                                  *)
(* ------------------------------------------------------------------ *)

let trials = 30

let test_step_differential () =
  for seed = 1 to trials do
    let p, input, st = random_protocol seed in
    let n = Protocol.num_nodes p in
    let ks = kernels p ~input in
    for _ = 1 to 5 do
      let config = random_config p st in
      let active = random_active n st in
      let expect = Engine.step p ~input config ~active in
      List.iter
        (fun (tier, k) ->
          let got = Kernel.step k config ~active in
          if not (config_eq p expect got) then
            Alcotest.failf "step mismatch (seed %d, tier %s)" seed tier)
        ks
    done
  done

let test_run_differential () =
  for seed = 1 to trials do
    let p, input, st = random_protocol seed in
    let n = Protocol.num_nodes p in
    let ks = kernels p ~input in
    List.iter
      (fun schedule ->
        let init = random_config p st in
        let steps = 1 + Random.State.int st 40 in
        let expect = Engine.run p ~input ~init ~schedule ~steps in
        List.iter
          (fun (tier, k) ->
            let got = Kernel.run k ~init ~schedule ~steps in
            if not (config_eq p expect got) then
              Alcotest.failf "run mismatch (seed %d, tier %s, %s)" seed tier
                schedule.Schedule.name)
          ks)
      (schedules_for seed n)
  done

let test_run_until_stable_differential () =
  for seed = 1 to trials do
    let p, input, st = random_protocol seed in
    let n = Protocol.num_nodes p in
    let ks = kernels p ~input in
    List.iter
      (fun schedule ->
        let init = random_config p st in
        let max_steps = 60 in
        let expect = Engine.run_until_stable p ~input ~init ~schedule ~max_steps in
        List.iter
          (fun (tier, k) ->
            let got = Kernel.run_until_stable k ~init ~schedule ~max_steps in
            if not (outcome_eq p expect got) then
              Alcotest.failf "run_until_stable mismatch (seed %d, tier %s, %s)"
                seed tier schedule.Schedule.name)
          ks)
      (schedules_for seed n)
  done

let test_settle_differential () =
  for seed = 1 to trials do
    let p, input, st = random_protocol seed in
    let n = Protocol.num_nodes p in
    let ks = kernels p ~input in
    List.iter
      (fun schedule ->
        let init = random_config p st in
        let max_steps = 80 in
        let expect = Engine.settle p ~input ~init ~schedule ~max_steps in
        List.iter
          (fun (tier, k) ->
            let got = Kernel.settle k ~init ~schedule ~max_steps in
            if not (settled_eq p expect got) then
              Alcotest.failf "settle mismatch (seed %d, tier %s, %s)" seed tier
                schedule.Schedule.name)
          ks)
      (schedules_for seed n)
  done

(* A kernel instance is reused across many runs in campaigns; make sure
   state from one run cannot leak into the next. *)
let test_kernel_reuse () =
  let p, input, st = random_protocol 77 in
  let n = Protocol.num_nodes p in
  let k = Kernel.create p ~input in
  let schedule = Schedule.synchronous n in
  let init = random_config p st in
  let first = Kernel.settle k ~init ~schedule ~max_steps:80 in
  for _ = 1 to 3 do
    let other = random_config p st in
    ignore (Kernel.run_until_stable k ~init:other ~schedule ~max_steps:40)
  done;
  let again = Kernel.settle k ~init ~schedule ~max_steps:80 in
  Alcotest.(check bool) "settle is reproducible on a reused kernel" true
    (settled_eq p first again)

let test_load_store_roundtrip () =
  let p, input, st = random_protocol 3 in
  let k = Kernel.create p ~input in
  let config = random_config p st in
  let labels = Array.make (Protocol.num_edges p) 0 in
  let outputs = Array.make (Protocol.num_nodes p) 0 in
  Kernel.load k config ~labels ~outputs;
  let back = Kernel.store k ~labels ~outputs in
  Alcotest.(check bool) "load/store round-trips" true (config_eq p config back);
  Alcotest.check_raises "load rejects wrong sizes"
    (Invalid_argument "Kernel.load: buffer sizes must match the protocol")
    (fun () -> Kernel.load k config ~labels:[| 0 |] ~outputs)

(* ------------------------------------------------------------------ *)
(* Reaction storage                                                    *)
(* ------------------------------------------------------------------ *)

(* K4 over five labels: node 0 has in-degree 3, so it can see 5^3 = 125
   distinct incoming codes — many doublings past a memo's first row. *)
let k4_mod5 () =
  {
    Protocol.name = "k4-mod5";
    graph = Builders.clique 4;
    space = Label.int 5;
    react =
      (fun i () inc ->
        let a = inc.(0) and b = inc.(1) and c = inc.(2) in
        ( Array.init 3 (fun k -> ((a * (k + 1)) + (2 * b) + (c * c) + i) mod 5),
          (a * 25) + (b * 5) + c ));
  }

(* The configuration whose labels on node 0's in-edges spell [code]
   (first in-edge most significant, as the kernel packs it); every other
   edge carries a label that also varies with [code]. *)
let config_of_code p code =
  let ins = Digraph.in_edges p.Protocol.graph 0 in
  let labels = Array.init (Protocol.num_edges p) (fun e -> (e + code) mod 5) in
  let c = ref code in
  for k = Array.length ins - 1 downto 0 do
    labels.(ins.(k)) <- !c mod 5;
    c := !c / 5
  done;
  { Protocol.labels; outputs = Array.make (Protocol.num_nodes p) 0 }

(* A memo-tier node stepped through all 125 codes — in order, then again
   in a scrambled order that revisits every code after all growth — must
   agree row for row with the table tier and output for output with
   {!Engine.step}, both with the default memo cap and with a cap of 3
   (past which rows are recomputed into shared scratch). The batched
   sweep grows the memo in the middle of one lock-step pass. *)
let test_memo_growth_and_cap () =
  let p = k4_mod5 () in
  let input = Array.make 4 () in
  let table = Kernel.create p ~input in
  let row_of k config =
    let labels = Array.make (Protocol.num_edges p) 0
    and outputs = Array.make 4 0 in
    Kernel.load k config ~labels ~outputs;
    let row, base = Kernel.eval_row k ~src:labels ~i:0 in
    Array.sub row base 4
  in
  let codes =
    List.init 125 Fun.id @ List.init 125 (fun c -> c * 47 mod 125)
  in
  List.iter
    (fun (name, k) ->
      List.iter
        (fun code ->
          let config = config_of_code p code in
          let expect = Engine.step p ~input config ~active:[ 0 ] in
          let got = Kernel.step k config ~active:[ 0 ] in
          if not (config_eq p expect got) then
            Alcotest.failf "%s: step differs from Engine.step at code %d" name
              code;
          if row_of k config <> row_of table config then
            Alcotest.failf "%s: row differs from the table tier at code %d"
              name code)
        codes;
      let b = Batch.create k in
      let configs = Array.init 125 (config_of_code p) in
      Batch.load_block b configs;
      Batch.step b ~active:[ 0 ];
      Array.iteri
        (fun j config ->
          let expect = Engine.step p ~input config ~active:[ 0 ] in
          if not (config_eq p expect (Batch.store b ~j)) then
            Alcotest.failf "%s: batched step differs at code %d" name j)
        configs)
    [
      ("memo", Kernel.create ~max_table_words:0 p ~input);
      ( "memo cap 3",
        Kernel.create ~max_table_words:0 ~max_memo_entries:3 p ~input );
    ]

(* Kernel storage follows use: with every node on the memo tier, what a
   fresh kernel holds beyond its protocol (CSR incidence, tiers, memos,
   shared scratch, the input array) stays a small constant per node. *)
let test_memory_per_node () =
  let nodes = 10_000 in
  let g = Simlab.graph_of (Simlab.Erdos_renyi 4.0) ~seed:1 ~nodes in
  let p = Best_response.protocol (Contagion.make g ~threshold:0.5) () in
  let n = Protocol.num_nodes p in
  let k = Kernel.create ~max_table_words:0 p ~input:(Array.make n ()) in
  let words =
    Obj.reachable_words (Obj.repr k) - Obj.reachable_words (Obj.repr p)
  in
  let per_node = float_of_int words /. float_of_int n in
  if per_node > 64. then
    Alcotest.failf "%.1f kernel words per node, above 64" per_node

(* ------------------------------------------------------------------ *)
(* Engine.trace regression                                             *)
(* ------------------------------------------------------------------ *)

(* The double-buffered [trace] must produce exactly the snapshots the
   step-by-step loop did (the previous implementation). *)
let naive_trace p ~input ~init ~schedule ~steps =
  let rec loop t config acc =
    if t >= steps then List.rev (config :: acc)
    else
      let next = Engine.step p ~input config ~active:(schedule.Schedule.active t) in
      loop (t + 1) next (config :: acc)
  in
  loop 0 init []

let test_trace_regression () =
  for seed = 1 to 10 do
    let p, input, st = random_protocol seed in
    let n = Protocol.num_nodes p in
    List.iter
      (fun schedule ->
        let init = random_config p st in
        List.iter
          (fun steps ->
            let expect = naive_trace p ~input ~init ~schedule ~steps in
            let got = Engine.trace p ~input ~init ~schedule ~steps in
            if
              not
                (List.length expect = List.length got
                && List.for_all2 (config_eq p) expect got)
            then
              Alcotest.failf "trace mismatch (seed %d, %s, %d steps)" seed
                schedule.Schedule.name steps)
          [ 0; 1; 7; 23 ])
      (schedules_for seed n)
  done

let test_trace_snapshots_independent () =
  let n = 4 in
  let p = Clique_example.make n in
  let input = Clique_example.input n in
  let init = Clique_example.oscillation_init p in
  let schedule = Clique_example.oscillation_schedule n in
  let tr = Engine.trace p ~input ~init ~schedule ~steps:6 in
  let keys = List.map (Protocol.config_key p) tr in
  (* Mutating one snapshot must not affect the others (no shared buffers). *)
  List.iter
    (fun c -> c.Protocol.labels.(0) <- not c.Protocol.labels.(0))
    [ List.nth tr 2 ];
  let keys' =
    List.mapi (fun i c -> if i = 2 then List.nth keys 2 else Protocol.config_key p c) tr
  in
  Alcotest.(check (list string)) "other snapshots unaffected" keys keys'

(* ------------------------------------------------------------------ *)
(* Parrun                                                              *)
(* ------------------------------------------------------------------ *)

let test_parrun_identical_across_domains () =
  let f _ i = (i * i) + 7 in
  let expect = Parrun.map ~domains:1 ~ctx:(fun () -> ()) 23 f in
  List.iter
    (fun domains ->
      let got = Parrun.map ~domains ~ctx:(fun () -> ()) 23 f in
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d" domains)
        expect got)
    ([ 2; 3; 4; 8; 40 ]
    @ (match Parrun.env_domains () with Some d -> [ d ] | None -> []))

let test_parrun_ctx_per_chunk () =
  (* Contexts are created lazily, at most one per participating domain;
     every task sees some context, and no context is double-counted
     (total increments = total tasks). *)
  let domains = 4 and n = 12 in
  let results =
    Parrun.map ~domains ~ctx:(fun () -> ref 0) n (fun c i ->
        incr c;
        (i, !c))
  in
  Array.iteri
    (fun i (j, _) -> Alcotest.(check int) "index order" i j)
    results;
  let restarts =
    Array.to_list results
    |> List.filter (fun (_, c) -> c = 1)
    |> List.length
  in
  Alcotest.(check bool) "at least one context" true (restarts >= 1);
  Alcotest.(check bool)
    "at most one context per domain" true (restarts <= domains)

let test_parrun_edge_cases () =
  Alcotest.(check (array int)) "empty" [||]
    (Parrun.map ~domains:4 ~ctx:(fun () -> ()) 0 (fun _ i -> i));
  Alcotest.(check (array int)) "more domains than tasks" [| 0; 1 |]
    (Parrun.map ~domains:8 ~ctx:(fun () -> ()) 2 (fun _ i -> i));
  Alcotest.check_raises "rejects domains < 1"
    (Invalid_argument "Parrun.map: domains must be >= 1") (fun () ->
      ignore (Parrun.map ~domains:0 ~ctx:(fun () -> ()) 3 (fun _ i -> i)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "stateless_kernel"
    [
      ( "differential",
        [
          Alcotest.test_case "step" `Quick test_step_differential;
          Alcotest.test_case "run" `Quick test_run_differential;
          Alcotest.test_case "run_until_stable" `Quick
            test_run_until_stable_differential;
          Alcotest.test_case "settle" `Quick test_settle_differential;
          Alcotest.test_case "kernel reuse" `Quick test_kernel_reuse;
          Alcotest.test_case "load/store" `Quick test_load_store_roundtrip;
        ] );
      ( "storage",
        [
          Alcotest.test_case "memo growth and cap" `Quick
            test_memo_growth_and_cap;
          Alcotest.test_case "memory per node" `Quick test_memory_per_node;
        ] );
      ( "trace",
        [
          Alcotest.test_case "matches step-by-step" `Quick
            test_trace_regression;
          Alcotest.test_case "snapshots independent" `Quick
            test_trace_snapshots_independent;
        ] );
      ( "parrun",
        [
          Alcotest.test_case "identical across domains" `Quick
            test_parrun_identical_across_domains;
          Alcotest.test_case "context per chunk" `Quick
            test_parrun_ctx_per_chunk;
          Alcotest.test_case "edge cases" `Quick test_parrun_edge_cases;
        ] );
    ]
