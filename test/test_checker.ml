module Builders = Stateless_graph.Builders
open Stateless_core
module Checker = Stateless_checker.Checker

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let unit_input n = Array.make n ()

let copy_ring_uni n : (unit, bool) Protocol.t =
  {
    Protocol.name = "copy-ring-uni";
    graph = Builders.ring_uni n;
    space = Label.bool;
    react = (fun _ () incoming -> ([| incoming.(0) |], 0));
  }

(* Bidirectional ring where each node copies its clockwise incoming label to
   both directions. Uniform labelings are stable. *)
let copy_ring_bi n : (unit, bool) Protocol.t =
  let g = Builders.ring_bi n in
  let module D = Stateless_graph.Digraph in
  {
    Protocol.name = "copy-ring-bi";
    graph = g;
    space = Label.bool;
    react =
      (fun i () incoming ->
        let from_ccw = ref false in
        Array.iteri
          (fun k e ->
            if D.src g e = (i + n - 1) mod n then from_ccw := incoming.(k))
          (D.in_edges g i);
        (Array.map (fun _ -> !from_ccw) (D.out_edges g i), 0));
  }

let constant_ring n : (unit, bool) Protocol.t =
  {
    Protocol.name = "constant-ring";
    graph = Builders.ring_uni n;
    space = Label.bool;
    react = (fun _ () _ -> ([| false |], 0));
  }

(* Labels rotate forever; outputs constant. Labels never stabilize, outputs
   always do. *)
let rotor_silent n : (unit, bool) Protocol.t =
  {
    Protocol.name = "rotor-silent";
    graph = Builders.ring_uni n;
    space = Label.bool;
    react = (fun _ () incoming -> ([| incoming.(0) |], 1));
  }

(* Labels rotate forever and node outputs follow the rotating label. *)
let rotor_loud n : (unit, bool) Protocol.t =
  {
    Protocol.name = "rotor-loud";
    graph = Builders.ring_uni n;
    space = Label.bool;
    react =
      (fun _ () incoming -> ([| incoming.(0) |], if incoming.(0) then 1 else 0));
  }

let budget = 2_000_000

(* ------------------------------------------------------------------ *)
(* Label checking                                                      *)
(* ------------------------------------------------------------------ *)

let test_constant_always_stabilizing () =
  let p = constant_ring 3 in
  List.iter
    (fun r ->
      match Checker.check_label p ~input:(unit_input 3) ~r ~max_states:budget with
      | Checker.Stabilizing -> ()
      | _ -> Alcotest.fail (Printf.sprintf "r=%d should stabilize" r))
    [ 1; 2; 3; 4 ]

let test_copy_ring_oscillates_synchronously () =
  let p = copy_ring_uni 3 in
  match Checker.check_label p ~input:(unit_input 3) ~r:1 ~max_states:budget with
  | Checker.Oscillating w ->
      check_bool "witness replays" true (Checker.replay p ~input:(unit_input 3) w)
  | _ -> Alcotest.fail "copy ring should oscillate under synchronous"

let test_example1_r1_stabilizing () =
  let p = Clique_example.make 3 in
  match
    Checker.check_label p ~input:(Clique_example.input 3) ~r:1
      ~max_states:budget
  with
  | Checker.Stabilizing -> ()
  | Checker.Oscillating _ -> Alcotest.fail "Example 1 is 1-stabilizing"
  | Checker.Too_large _ -> Alcotest.fail "budget too small"

let test_example1_r2_oscillates_n3 () =
  (* n = 3: r = n - 1 = 2 must oscillate (Theorem 3.1). *)
  let p = Clique_example.make 3 in
  match
    Checker.check_label p ~input:(Clique_example.input 3) ~r:2
      ~max_states:budget
  with
  | Checker.Oscillating w ->
      check_bool "witness replays" true
        (Checker.replay p ~input:(Clique_example.input 3) w)
  | Checker.Stabilizing -> Alcotest.fail "should oscillate at r = n-1"
  | Checker.Too_large _ -> Alcotest.fail "budget too small"

let test_example1_tightness_n4 () =
  (* n = 4: stabilizing at r = n - 2 = 2, oscillating at r = n - 1 = 3.
     This is the paper's tightness claim for Theorem 3.1, decided
     exhaustively. *)
  let p = Clique_example.make 4 in
  let input = Clique_example.input 4 in
  (match Checker.check_label p ~input ~r:2 ~max_states:budget with
  | Checker.Stabilizing -> ()
  | Checker.Oscillating _ -> Alcotest.fail "n=4 r=2 should stabilize"
  | Checker.Too_large { needed } ->
      Alcotest.fail (Printf.sprintf "budget: need %d states" needed));
  match Checker.check_label p ~input ~r:3 ~max_states:budget with
  | Checker.Oscillating w ->
      check_bool "witness replays" true (Checker.replay p ~input w)
  | Checker.Stabilizing -> Alcotest.fail "n=4 r=3 should oscillate"
  | Checker.Too_large { needed } ->
      Alcotest.fail (Printf.sprintf "budget: need %d states" needed)

let test_max_stabilizing_r_example1 () =
  (* Example 1 at n = 3: the maximal stabilizing fairness is r = 1 = n-2. *)
  let p = Clique_example.make 3 in
  check "max r" 1
    (Option.get
       (Checker.max_stabilizing_r p ~input:(Clique_example.input 3) ~r_limit:4
          ~max_states:budget))

let test_theorem31_on_copy_ring_bi () =
  (* Two stable labelings exist, so Theorem 3.1 predicts failure at
     r = n - 1; the checker confirms on the bidirectional 3-ring. *)
  let p = copy_ring_bi 3 in
  let input = unit_input 3 in
  check_bool "two stable labelings" true
    (Stability.has_multiple_stable_labelings p ~input);
  match Checker.check_label p ~input ~r:2 ~max_states:budget with
  | Checker.Oscillating w ->
      check_bool "witness replays" true (Checker.replay p ~input w)
  | Checker.Stabilizing -> Alcotest.fail "Theorem 3.1 violated?!"
  | Checker.Too_large _ -> Alcotest.fail "budget too small"

let test_too_large_reported () =
  let p = Clique_example.make 4 in
  match
    Checker.check_label p ~input:(Clique_example.input 4) ~r:3 ~max_states:10
  with
  | Checker.Too_large { needed } -> check_bool "needed > 10" true (needed > 10)
  | _ -> Alcotest.fail "should report Too_large"

(* ------------------------------------------------------------------ *)
(* Output checking                                                     *)
(* ------------------------------------------------------------------ *)

let test_output_stabilizing_despite_label_oscillation () =
  let p = rotor_silent 3 in
  let input = unit_input 3 in
  (match Checker.check_label p ~input ~r:1 ~max_states:budget with
  | Checker.Oscillating _ -> ()
  | _ -> Alcotest.fail "labels should oscillate");
  match Checker.check_output p ~input ~r:1 ~max_states:budget with
  | Checker.Stabilizing -> ()
  | Checker.Oscillating _ -> Alcotest.fail "outputs are constant"
  | Checker.Too_large _ -> Alcotest.fail "budget too small"

let test_output_divergence_found () =
  let p = rotor_loud 3 in
  let input = unit_input 3 in
  match Checker.check_output p ~input ~r:1 ~max_states:budget with
  | Checker.Oscillating w ->
      check_bool "witness replays" true (Checker.replay p ~input w)
  | Checker.Stabilizing -> Alcotest.fail "outputs diverge"
  | Checker.Too_large _ -> Alcotest.fail "budget too small"

let test_output_check_constant () =
  let p = constant_ring 3 in
  match Checker.check_output p ~input:(unit_input 3) ~r:2 ~max_states:budget with
  | Checker.Stabilizing -> ()
  | _ -> Alcotest.fail "constant protocol output-stabilizes"

(* ------------------------------------------------------------------ *)
(* Witness structure                                                   *)
(* ------------------------------------------------------------------ *)

let test_witness_schedule_is_r_fair () =
  let p = Clique_example.make 3 in
  let input = Clique_example.input 3 in
  match Checker.check_label p ~input ~r:2 ~max_states:budget with
  | Checker.Oscillating w ->
      (* The cycle repeated forever must be 2-fair. *)
      let sched = Schedule.block_rounds w.Checker.cycle in
      check_bool "cycle is 2-fair" true
        (Schedule.is_r_fair sched ~n:3 ~r:2
           ~horizon:(4 * List.length w.Checker.cycle))
  | _ -> Alcotest.fail "expected oscillation"

let test_witness_nonempty_steps () =
  let p = copy_ring_uni 3 in
  match Checker.check_label p ~input:(unit_input 3) ~r:2 ~max_states:budget with
  | Checker.Oscillating w ->
      check_bool "cycle nonempty" true (w.Checker.cycle <> []);
      List.iter
        (fun step -> check_bool "step nonempty" true (step <> []))
        (w.Checker.prefix @ w.Checker.cycle)
  | _ -> Alcotest.fail "expected oscillation"

(* ------------------------------------------------------------------ *)
(* Property: engine outcome and checker verdict cannot contradict      *)
(* ------------------------------------------------------------------ *)

let prop_checker_consistent_with_engine =
  (* If the checker says r-stabilizing, no random r-fair run may oscillate
     (they must either stabilize or still be in the transient). *)
  QCheck.Test.make ~count:20 ~name:"checker consistent with engine"
    (QCheck.make QCheck.Gen.(pair (int_bound 100) (int_range 3 4)))
    (fun (seed, n) ->
      let p = Clique_example.make n in
      let input = Clique_example.input n in
      let r = n - 2 in
      match Checker.check_label p ~input ~r ~max_states:budget with
      | Checker.Stabilizing -> (
          let schedule = Schedule.random_fair ~seed ~r n in
          let init = Clique_example.oscillation_init p in
          match
            Engine.run_until_stable p ~input ~init ~schedule
              ~max_steps:(200 * n)
          with
          | Engine.Oscillating _ -> false
          | Engine.Stabilized _ | Engine.Exhausted _ -> true)
      | _ -> false)

(* Random protocols on K_3 with 1-bit same-to-all labels: each node maps
   its two incoming bits to one outgoing bit, so a protocol is a 12-bit
   table. Exhaustive checking is cheap (64 labelings x countdowns), making
   these ideal for cross-validation. *)
let random_k3_protocol table : (unit, bool) Stateless_core.Protocol.t =
  let g = Builders.clique 3 in
  let module D = Stateless_graph.Digraph in
  {
    Protocol.name = Printf.sprintf "table-%d" table;
    graph = g;
    space = Label.bool;
    react =
      (fun i () incoming ->
        let idx =
          Array.fold_left
            (fun acc b -> (2 * acc) + if b then 1 else 0)
            0 incoming
        in
        let bit = (table lsr ((4 * i) + idx)) land 1 = 1 in
        (Array.map (fun _ -> bit) (D.out_edges g i), if bit then 1 else 0))
  }

let prop_checker_vs_sampler =
  (* The exhaustive checker and the randomized adversary sampler must never
     contradict: a sampled oscillation on a protocol the checker proved
     stabilizing would be a soundness bug in one of them. *)
  QCheck.Test.make ~count:40 ~name:"checker and sampler never contradict"
    (QCheck.make QCheck.Gen.(int_bound ((1 lsl 12) - 1)))
    (fun table ->
      let p = random_k3_protocol table in
      let input = unit_input 3 in
      let r = 2 in
      match Checker.check_label p ~input ~r ~max_states:budget with
      | Checker.Too_large _ -> false
      | Checker.Oscillating w -> Checker.replay p ~input w
      | Checker.Stabilizing ->
          Stateless_core.Adversary.find_oscillation p ~input ~r ~attempts:20
            ~period:6 ~seed:table ~max_steps:300
          = None)

let prop_theorem31_on_random_protocols =
  (* Theorem 3.1 as a universal law over random protocols: whenever a
     random K_3 protocol has two stable labelings, the checker must find a
     2-fair oscillation. *)
  QCheck.Test.make ~count:60 ~name:"Theorem 3.1 holds on random protocols"
    (QCheck.make QCheck.Gen.(int_bound ((1 lsl 12) - 1)))
    (fun table ->
      let p = random_k3_protocol table in
      let input = unit_input 3 in
      if not (Stability.has_multiple_stable_labelings p ~input) then true
      else
        match Checker.check_label p ~input ~r:2 ~max_states:budget with
        | Checker.Oscillating w -> Checker.replay p ~input w
        | Checker.Stabilizing -> false (* would contradict Theorem 3.1 *)
        | Checker.Too_large _ -> false)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_checker_consistent_with_engine;
      prop_checker_vs_sampler;
      prop_theorem31_on_random_protocols;
    ]

(* ------------------------------------------------------------------ *)
(* Vec unit tests                                                      *)
(* ------------------------------------------------------------------ *)

module Vec = Stateless_checker.Vec

let test_vec_growth () =
  let v = Vec.create ~capacity:0 ~dummy:(-1) () in
  for i = 0 to 999 do
    Vec.push v i
  done;
  check "length" 1000 (Vec.length v);
  check "first" 0 (Vec.get v 0);
  check "middle" 500 (Vec.get v 500);
  check "last" 999 (Vec.get v 999)

let test_vec_bounds () =
  let v = Vec.create ~capacity:4 ~dummy:0 () in
  Vec.push v 7;
  check "get" 7 (Vec.get v 0);
  Alcotest.check_raises "get past length"
    (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v 1));
  Alcotest.check_raises "get negative"
    (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v (-1)));
  Alcotest.check_raises "set past length"
    (Invalid_argument "Vec.set: index out of bounds") (fun () -> Vec.set v 1 3);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Vec.create: negative capacity") (fun () ->
      ignore (Vec.create ~capacity:(-1) ~dummy:0 ()))

let test_vec_to_array_clear () =
  let v = Vec.create ~dummy:0 () in
  for i = 1 to 5 do
    Vec.push v (i * i)
  done;
  Alcotest.(check (array int)) "to_array" [| 1; 4; 9; 16; 25 |] (Vec.to_array v);
  Vec.clear v;
  check "length after clear" 0 (Vec.length v);
  Alcotest.(check (array int)) "empty to_array" [||] (Vec.to_array v);
  Vec.push v 42;
  check "push after clear" 42 (Vec.get v 0)

let test_vec_reserve_unsafe () =
  let v = Vec.create ~capacity:0 ~dummy:0 () in
  Vec.reserve v 3;
  Vec.unsafe_push v 1;
  Vec.unsafe_push v 2;
  Vec.unsafe_push v 3;
  Alcotest.(check (array int)) "reserved pushes" [| 1; 2; 3 |] (Vec.to_array v);
  Vec.set v 1 9;
  check "set" 9 (Vec.get v 1);
  check "unsafe_get" 9 (Vec.unsafe_get v 1);
  Vec.unsafe_set v 2 11;
  check "unsafe_set" 11 (Vec.get v 2)

(* ------------------------------------------------------------------ *)
(* Differential: memoized CSR checker vs naive reference               *)
(* ------------------------------------------------------------------ *)

(* Example 1's reaction on K_2 (too small for [Clique_example.make]). *)
let clique2_example : (unit, bool) Protocol.t =
  let g = Builders.clique 2 in
  let module D = Stateless_graph.Digraph in
  {
    Protocol.name = "example1-clique-2";
    graph = g;
    space = Label.bool;
    react =
      (fun i () incoming ->
        let hot = Array.exists (fun b -> b) incoming in
        (Array.map (fun _ -> hot) (D.out_edges g i), if hot then 1 else 0));
  }

(* Mod-3 counter on a unidirectional ring: labels cycle 0 -> 1 -> 2. *)
let counter_ring n : (unit, int) Protocol.t =
  {
    Protocol.name = "mod3-counter-ring";
    graph = Builders.ring_uni n;
    space = Label.int 3;
    react = (fun _ () incoming -> ([| (incoming.(0) + 1) mod 3 |], incoming.(0)));
  }

type diff_case =
  | Case : string * ('x, 'l) Protocol.t * 'x array -> diff_case

let diff_cases =
  [
    Case ("clique2", clique2_example, unit_input 2);
    Case ("clique3", Clique_example.make 3, Clique_example.input 3);
    Case ("clique4", Clique_example.make 4, Clique_example.input 4);
    Case ("copy-ring-uni-3", copy_ring_uni 3, unit_input 3);
    Case ("copy-ring-uni-4", copy_ring_uni 4, unit_input 4);
    Case ("copy-ring-bi-3", copy_ring_bi 3, unit_input 3);
    Case ("rotor-loud-3", rotor_loud 3, unit_input 3);
    Case ("mod3-counter-3", counter_ring 3, unit_input 3);
  ]

(* A budget small enough that some (protocol, r) pairs overflow: both
   checkers must then report the same [Too_large]. *)
let diff_budget = 150_000

let test_differential_vs_naive () =
  List.iter
    (fun (Case (name, p, input)) ->
      List.iter
        (fun r ->
          let ctx verb = Printf.sprintf "%s r=%d %s" name r verb in
          let fast_l = Checker.check_label p ~input ~r ~max_states:diff_budget
          and naive_l =
            Checker.Naive.check_label p ~input ~r ~max_states:diff_budget
          in
          check_bool (ctx "label verdicts identical") true (fast_l = naive_l);
          (match fast_l with
          | Checker.Oscillating w ->
              check_bool (ctx "label witness replays") true
                (Checker.replay p ~input w)
          | _ -> ());
          let fast_o = Checker.check_output p ~input ~r ~max_states:diff_budget
          and naive_o =
            Checker.Naive.check_output p ~input ~r ~max_states:diff_budget
          in
          check_bool (ctx "output verdicts identical") true (fast_o = naive_o);
          match fast_o with
          | Checker.Oscillating w ->
              check_bool (ctx "output witness replays") true
                (Checker.replay p ~input w)
          | _ -> ())
        [ 1; 2; 3 ])
    diff_cases

let test_differential_hits_too_large () =
  (* Guard that the suite really exercises the Too_large path. *)
  match
    Checker.check_label (Clique_example.make 4)
      ~input:(Clique_example.input 4) ~r:3 ~max_states:diff_budget
  with
  | Checker.Too_large _ -> ()
  | _ -> Alcotest.fail "clique4 r=3 should exceed the differential budget"

let test_domains_deterministic () =
  (* Multicore expansion must be bit-identical to sequential exploration:
     same verdicts, same witnesses, for label and output checks alike.
     [PARRUN_DOMAINS] adds an extra domain count to the matrix in CI. *)
  let domain_matrix =
    2 :: (match Parrun.env_domains () with Some d -> [ d ] | None -> [])
  in
  List.iter
    (fun (Case (name, p, input)) ->
      List.iter
        (fun r ->
          let ctx verb = Printf.sprintf "%s r=%d %s" name r verb in
          let seq = Checker.check_label p ~input ~r ~max_states:diff_budget
          and seq_o =
            Checker.check_output p ~input ~r ~max_states:diff_budget
          in
          List.iter
            (fun domains ->
              let par =
                Checker.check_label ~domains p ~input ~r
                  ~max_states:diff_budget
              in
              check_bool
                (ctx (Printf.sprintf "domains=%d label verdict identical"
                        domains))
                true (seq = par);
              let par_o =
                Checker.check_output ~domains p ~input ~r
                  ~max_states:diff_budget
              in
              check_bool
                (ctx (Printf.sprintf "domains=%d output verdict identical"
                        domains))
                true (seq_o = par_o))
            domain_matrix)
        [ 1; 2 ])
    diff_cases

(* ------------------------------------------------------------------ *)
(* Symmetry reduction                                                  *)
(* ------------------------------------------------------------------ *)

module Symmetry = Stateless_checker.Symmetry
module Stateset = Stateless_checker.Stateset

(* A fixture: name, protocol, input, group and the values of r to run. *)
type sym_case =
  | Sym_case :
      string
      * ('x, 'l) Protocol.t
      * 'x array
      * [ `Clique | `Ring | `Rotations of int ]
      * int list
      -> sym_case

(* The copy ring of the certify benchmark (13 labels there) over [card]
   labels: each node copies its in-label and outputs it. *)
let copy_ring_int ~card n : (unit, int) Protocol.t =
  {
    Protocol.name = Printf.sprintf "copy-ring-uni-c%d" card;
    graph = Builders.ring_uni n;
    space = Label.int card;
    react = (fun _ () incoming -> ([| incoming.(0) |], incoming.(0)));
  }

let r123 = [ 1; 2; 3 ]

let sym_cases =
  [
    Sym_case
      ("clique3", Clique_example.make 3, Clique_example.input 3, `Clique, r123);
    Sym_case
      ("clique4", Clique_example.make 4, Clique_example.input 4, `Clique, r123);
    Sym_case ("copy-ring-uni-4", copy_ring_uni 4, unit_input 4, `Ring, r123);
    Sym_case ("copy-ring-uni-5", copy_ring_uni 5, unit_input 5, `Ring, r123);
    (* [copy_ring_bi] copies from a direction-specific neighbor, so it is
       rotation- but not reflection-equivariant: on the bidirectional ring
       the full [Symmetry.ring] dihedral group is too big, and the
       rotations-only subgroup must be given explicitly. *)
    Sym_case
      ("copy-ring-bi-3", copy_ring_bi 3, unit_input 3, `Rotations 3, r123);
    Sym_case ("rotor-loud-3", rotor_loud 3, unit_input 3, `Ring, r123);
    Sym_case ("constant-ring-3", constant_ring 3, unit_input 3, `Ring, r123);
    (* Label radix 13, on 3 nodes so the unreduced explorer stays fast. *)
    Sym_case
      ("copy-ring-uni-3-c13", copy_ring_int ~card:13 3, unit_input 3, `Ring,
        r123);
    (* 17 labels and r = 7 split a state key into five table chunks (one
       per label digit, two of countdown digits), so canonicalization also
       loops over the chunks past its four fixed lookups. *)
    Sym_case
      ("copy-ring-uni-3-c17", copy_ring_int ~card:17 3, unit_input 3, `Ring,
        [ 7 ]);
  ]

let group_of kind g =
  match kind with
  | `Clique -> Symmetry.clique g
  | `Ring -> Symmetry.ring g
  | `Rotations n ->
      let rot k = Array.init n (fun i -> (i + k) mod n) in
      Symmetry.of_node_perms g (List.init (n - 1) (fun k -> rot (k + 1)))

let test_symmetry_group_orders () =
  check "S_4 on clique4" 24
    (Symmetry.order (Symmetry.clique (Clique_example.make 4).Protocol.graph));
  check "rotations on uni 5-ring" 5
    (Symmetry.order (Symmetry.ring (Builders.ring_uni 5)));
  check "dihedral on bi 4-ring" 8
    (Symmetry.order (Symmetry.ring (Builders.ring_bi 4)))

let test_symmetry_of_node_perms () =
  let g = Builders.ring_uni 4 in
  let rot k = Array.init 4 (fun i -> (i + k) mod 4) in
  check "cyclic group from explicit rotations" 4
    (Symmetry.order (Symmetry.of_node_perms g [ rot 1; rot 2; rot 3 ]));
  (* A single non-trivial rotation is not closed under composition. *)
  (try
     ignore (Symmetry.of_node_perms g [ rot 1 ]);
     Alcotest.fail "non-closed set accepted"
   with Invalid_argument _ -> ());
  (* A reflection is not an automorphism of the directed ring. *)
  try
    ignore
      (Symmetry.of_node_perms g [ Array.init 4 (fun i -> (4 - i) mod 4) ]);
    Alcotest.fail "non-automorphism accepted"
  with Invalid_argument _ -> ()

(* The quotient explorer must agree with the unreduced one on every
   fixture: same verdict, replayable lifted witnesses, and the orbit sizes
   of the explored representatives must sum to exactly the unreduced
   reachable count. *)
let test_symmetry_differential () =
  List.iter
    (fun (Sym_case (name, p, input, kind, rs)) ->
      let sym = group_of kind p.Protocol.graph in
      check_bool (name ^ " equivariant") true (Symmetry.verify p ~input sym);
      List.iter
        (fun r ->
          let ctx verb = Printf.sprintf "%s r=%d %s" name r verb in
          let plain = Checker.check_label p ~input ~r ~max_states:budget in
          let pstats = Option.get (Checker.last_stats ()) in
          check (ctx "unreduced full_states = states") pstats.Checker.states
            pstats.Checker.full_states;
          let red =
            Checker.check_label ~symmetry:sym p ~input ~r ~max_states:budget
          in
          let rstats = Option.get (Checker.last_stats ()) in
          (match (plain, red) with
          | Checker.Stabilizing, Checker.Stabilizing -> ()
          | Checker.Oscillating _, Checker.Oscillating w ->
              check_bool (ctx "lifted witness replays") true
                (Checker.replay p ~input w)
          | _ ->
              Alcotest.fail
                (ctx "quotient verdict disagrees with unreduced"));
          check (ctx "orbits cover the unreduced graph")
            pstats.Checker.states rstats.Checker.full_states;
          check_bool (ctx "quotient is no larger") true
            (rstats.Checker.states <= pstats.Checker.states))
        rs)
    sym_cases

let test_symmetry_max_r () =
  let p = Clique_example.make 4 in
  let input = Clique_example.input 4 in
  let sym = Symmetry.clique p.Protocol.graph in
  check "max stabilizing r via quotient" 2
    (Option.get
       (Checker.max_stabilizing_r ~symmetry:sym p ~input ~r_limit:3
          ~max_states:budget))

let test_symmetry_domains_deterministic () =
  let p = Clique_example.make 4 in
  let input = Clique_example.input 4 in
  let sym = Symmetry.clique p.Protocol.graph in
  let seq = Checker.check_label ~symmetry:sym p ~input ~r:2 ~max_states:budget in
  List.iter
    (fun domains ->
      let par =
        Checker.check_label ~domains ~symmetry:sym p ~input ~r:2
          ~max_states:budget
      in
      check_bool
        (Printf.sprintf "sym domains=%d bit-identical" domains)
        true (seq = par))
    [ 2; 3; 8 ];
  (* Every fixture at each of its r: parallel expansion canonicalizes with
     one scratch per domain. *)
  List.iter
    (fun (Sym_case (name, p, input, kind, rs)) ->
      let symmetry = group_of kind p.Protocol.graph in
      List.iter
        (fun r ->
          let run domains =
            Checker.check_label ~domains ~symmetry p ~input ~r
              ~max_states:budget
          in
          check_bool
            (Printf.sprintf "%s r=%d sym domains=2 bit-identical" name r)
            true
            (run 1 = run 2))
        rs)
    sym_cases

let test_symmetry_rejects_asymmetric () =
  (* Node 0 behaves differently, so the rotation group does not commute
     with the dynamics. *)
  let p : (unit, bool) Protocol.t =
    {
      Protocol.name = "lopsided-ring";
      graph = Builders.ring_uni 4;
      space = Label.bool;
      react = (fun i () incoming -> ([| (if i = 0 then true else incoming.(0)) |], 0));
    }
  in
  let sym = Symmetry.ring p.Protocol.graph in
  check_bool "verify refutes" false (Symmetry.verify p ~input:(unit_input 4) sym);
  try
    ignore
      (Checker.check_label ~symmetry:sym p ~input:(unit_input 4) ~r:1
         ~max_states:budget);
    Alcotest.fail "asymmetric protocol accepted"
  with Invalid_argument _ -> ()

let test_symmetry_rejects_rare_asymmetry () =
  (* Every node sends and outputs the max of its in-labels, except that
     node 0 adds 1 (mod the label count) on one tuple of in-labels. Almost
     no labeling shows the asymmetry, so sampling labelings and activation
     sets misses it; checking every node on every in-label tuple does not. *)
  let lopsided n card trigger : (unit, int) Protocol.t =
    let g = Builders.clique n in
    {
      Protocol.name = "lopsided-clique";
      graph = g;
      space = Label.int card;
      react =
        (fun i () incoming ->
          let v = Array.fold_left max 0 incoming in
          let v = if i = 0 && incoming = trigger then (v + 1) mod card else v in
          (Array.make (Stateless_graph.Digraph.out_degree g i) v, v));
    }
  in
  let verify n card trigger =
    let p = lopsided n card trigger in
    Symmetry.verify p ~input:(unit_input n) (Symmetry.clique p.Protocol.graph)
  in
  check_bool "max protocol accepted" true (verify 5 3 [||]);
  (* 17^4 = 83521 in-label tuples per node, all of them checked. *)
  check_bool "max protocol over 17 labels accepted" true (verify 5 17 [||]);
  List.iter
    (fun (n, card, trigger) ->
      check_bool
        (Printf.sprintf "K%d over %d labels refuted" n card)
        false (verify n card trigger))
    [
      (5, 3, [| 2; 2; 2; 1 |]);
      (5, 4, [| 3; 3; 3; 1 |]);
      (7, 2, [| 0; 0; 1; 1; 0; 0 |]);
      (5, 17, [| 9; 4; 9; 9 |]);
    ];
  (* (2^22)^4 in-label tuples per node do not fit in an int. *)
  try
    ignore (verify 5 (1 lsl 22) [||]);
    Alcotest.fail "uncountable in-label tuples accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Stateset                                                            *)
(* ------------------------------------------------------------------ *)

let test_stateset_direct () =
  let s = Stateset.create () in
  Stateset.reset s ~universe:1000;
  check_bool "direct mode" false (Stateset.hashed s);
  check "absent" (-1) (Stateset.find s 123);
  Stateset.add s ~key:123 ~id:0;
  Stateset.add s ~key:999 ~id:1;
  check "found" 0 (Stateset.find s 123);
  check "found hi" 1 (Stateset.find s 999);
  Stateset.reset s ~universe:1000;
  check "reset forgets" (-1) (Stateset.find s 123);
  check "reset forgets hi" (-1) (Stateset.find s 999)

let test_stateset_hashed () =
  let s = Stateset.create () in
  let universe = Stateset.direct_cap + 1 in
  Stateset.reset s ~universe;
  check_bool "hashed mode" true (Stateset.hashed s);
  (* Enough keys to force several growth cycles. *)
  let count = 200_000 in
  for i = 0 to count - 1 do
    Stateset.add s ~key:((i * 97) + 5) ~id:i
  done;
  let ok = ref true in
  for i = 0 to count - 1 do
    if Stateset.find s ((i * 97) + 5) <> i then ok := false
  done;
  check_bool "all found after growth" true !ok;
  check "absent key" (-1) (Stateset.find s 4);
  Stateset.reset s ~universe;
  check "reset forgets" (-1) (Stateset.find s 5)

let test_stateset_mode_switch () =
  (* Direct entries must not leak through an interleaved hashed run. *)
  let s = Stateset.create () in
  Stateset.reset s ~universe:64;
  Stateset.add s ~key:7 ~id:0;
  Stateset.reset s ~universe:(Stateset.direct_cap + 1);
  Stateset.add s ~key:7 ~id:42;
  check "hashed sees its own" 42 (Stateset.find s 7);
  Stateset.reset s ~universe:64;
  check "direct entry gone" (-1) (Stateset.find s 7)

let test_stateset_reset_shrinks_wasteful_retention () =
  (* A big hashed run followed by small reuses must not keep paying the
     big run's capacity: reset shrinks the table once retained capacity
     exceeds 8x the last run's count, and keeps it otherwise. *)
  let s = Stateset.create () in
  let universe = Stateset.direct_cap + 1 in
  Stateset.reset s ~universe;
  let cap0 = Stateset.capacity s in
  (* Force one doubling: growth keeps load <= 1/2. *)
  let big = cap0 in
  for i = 0 to big - 1 do
    Stateset.add s ~key:((i * 97) + 5) ~id:i
  done;
  let grown = Stateset.capacity s in
  check_bool "grew past the initial capacity" true (grown > cap0);
  (* Reset after a comparably big run: capacity is retained (the common
     checker pattern — same-sized runs back to back, no realloc). *)
  Stateset.reset s ~universe;
  check "retained after big run" grown (Stateset.capacity s);
  (* A small run, then reset: now the retained table is > 8x the run's
     count, so it shrinks back to the initial capacity. *)
  for i = 0 to 9 do
    Stateset.add s ~key:(i * 1009) ~id:i
  done;
  Stateset.reset s ~universe;
  check "shrunk after small run" cap0 (Stateset.capacity s);
  (* Still a working, empty table after the shrink. *)
  check "shrunk table forgets" (-1) (Stateset.find s 5);
  Stateset.add s ~key:12345 ~id:7;
  check "add after shrink" 7 (Stateset.find s 12345)

let () =
  Alcotest.run "stateless_checker"
    [
      ( "label",
        [
          Alcotest.test_case "constant stabilizes all r" `Quick
            test_constant_always_stabilizing;
          Alcotest.test_case "copy ring oscillates r=1" `Quick
            test_copy_ring_oscillates_synchronously;
          Alcotest.test_case "example1 r=1 stabilizing" `Quick
            test_example1_r1_stabilizing;
          Alcotest.test_case "example1 r=2 oscillates (n=3)" `Quick
            test_example1_r2_oscillates_n3;
          Alcotest.test_case "example1 tightness (n=4)" `Slow
            test_example1_tightness_n4;
          Alcotest.test_case "max stabilizing r" `Quick
            test_max_stabilizing_r_example1;
          Alcotest.test_case "theorem 3.1 on copy ring" `Quick
            test_theorem31_on_copy_ring_bi;
          Alcotest.test_case "too large reported" `Quick test_too_large_reported;
        ] );
      ( "output",
        [
          Alcotest.test_case "output-stable despite label oscillation" `Quick
            test_output_stabilizing_despite_label_oscillation;
          Alcotest.test_case "output divergence found" `Quick
            test_output_divergence_found;
          Alcotest.test_case "constant output check" `Quick
            test_output_check_constant;
        ] );
      ( "witness",
        [
          Alcotest.test_case "cycle schedule r-fair" `Quick
            test_witness_schedule_is_r_fair;
          Alcotest.test_case "steps nonempty" `Quick test_witness_nonempty_steps;
        ] );
      ( "vec",
        [
          Alcotest.test_case "growth from empty" `Quick test_vec_growth;
          Alcotest.test_case "bounds checking" `Quick test_vec_bounds;
          Alcotest.test_case "to_array and clear" `Quick
            test_vec_to_array_clear;
          Alcotest.test_case "reserve and unsafe accessors" `Quick
            test_vec_reserve_unsafe;
        ] );
      ( "differential",
        [
          Alcotest.test_case "fast vs naive, all cases, r=1..3" `Quick
            test_differential_vs_naive;
          Alcotest.test_case "budget overflow exercised" `Quick
            test_differential_hits_too_large;
          Alcotest.test_case "domains=2 bit-identical" `Quick
            test_domains_deterministic;
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "group orders" `Quick test_symmetry_group_orders;
          Alcotest.test_case "explicit perms validated" `Quick
            test_symmetry_of_node_perms;
          Alcotest.test_case "quotient vs unreduced, all cases, r=1..3" `Quick
            test_symmetry_differential;
          Alcotest.test_case "max stabilizing r via quotient" `Quick
            test_symmetry_max_r;
          Alcotest.test_case "quotient domains bit-identical" `Quick
            test_symmetry_domains_deterministic;
          Alcotest.test_case "asymmetric protocol rejected" `Quick
            test_symmetry_rejects_asymmetric;
          Alcotest.test_case "rare asymmetry rejected" `Quick
            test_symmetry_rejects_rare_asymmetry;
        ] );
      ( "stateset",
        [
          Alcotest.test_case "direct mode" `Quick test_stateset_direct;
          Alcotest.test_case "hashed mode growth" `Quick test_stateset_hashed;
          Alcotest.test_case "mode switch isolation" `Quick
            test_stateset_mode_switch;
          Alcotest.test_case "reset shrinks wasteful retention" `Quick
            test_stateset_reset_shrinks_wasteful_retention;
        ] );
      ("properties", qcheck_tests);
    ]
