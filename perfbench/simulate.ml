(* Workload [simulate]: continuous-time Eventsim at 10^5 nodes.

   At this size the simulator's working set leaves the cache, which is
   where its events/s falls off. Three instances are advanced round-robin,
   one horizon slice each per round, on one domain; the next slice is
   issued when the previous [Eventsim.run] returns (a closed loop):

   - ring_const: threshold contagion on a ring, constant latency (FIFO
     delivery ring, local access);
   - er_exp: threshold contagion on Erdős–Rényi with average degree 4 and
     exponential latency (4-ary heap, random access, latency draws);
   - spp_ring: a tiling of SPP GOOD GADGET copies, constant latency
     (path-valued labels).

   The seed picks the Erdős–Rényi graph and every simulator seed. The
   benchmark drives [Eventsim] directly, since a Simlab instance does not
   expose its protocol or a sliced run, so its set-up is a copy of
   [Simlab.build]'s wiring (graph from [Simlab.graph_of], protocol and
   seeding from the games library, the SPP tiling). Before set-up each
   scenario is also built with [Simlab.build] itself and run to horizon 1
   with the same simulator seed; at horizon 1 the copy must match it in
   events, activations, deliveries and metric, so a copy that drifts from
   Simlab fails the correctness gate. *)

open Perfbench
open Common
module Protocol = Stateless_core.Protocol
module Eventsim = Stateless_core.Eventsim
module Kernel = Stateless_core.Kernel
module Simlab = Stateless_simlab.Simlab
module Contagion = Stateless_games.Contagion
module Best_response = Stateless_games.Best_response
module Spp = Stateless_games.Spp
module Digraph = Stateless_graph.Digraph

let nodes = 100_000
let slice = 0.5

(* SPP converges well before this horizon at 10^5 nodes. *)
let spp_horizon = 20.0

type sim = {
  name : string;
  n : int;
  advance : float -> Eventsim.stats;
  routes : unit -> int;  (** nodes whose announcement satisfies the probe *)
  eval_row_ns : Random.State.t -> float;
}

(* [Kernel.eval_row] timed over uniformly drawn nodes of a kernel compiled
   for the same protocol, against the simulator's current labels. The first
   sweep fills the lazily built tables; the second is timed. *)
let time_eval_row p ~input ~labels rng =
  let k = Kernel.create p ~input in
  let picks = Array.init 65536 (fun _ -> Random.State.int rng (Array.length input)) in
  let sweep () = Array.iter (fun i -> ignore (Kernel.eval_row k ~src:labels ~i)) picks in
  sweep ();
  let (), dt = timed sweep in
  dt *. 1e9 /. float (Array.length picks)

let arm (type l) ~name ~latency ~seed (p : (unit, l) Protocol.t) ~init ~hit =
  let g = p.Protocol.graph in
  let n = Digraph.num_nodes g in
  let input = Array.make n () in
  let sim =
    Trace.span "eventsim.create" (fun () ->
        Eventsim.create ~rate:1.0 ~latency ~seed p ~input ~init)
  in
  let routes () =
    let labels = Eventsim.labels sim in
    let count = ref 0 in
    for i = 0 to n - 1 do
      let oes = Digraph.out_edges g i in
      if Array.length oes > 0 && hit labels.(oes.(0)) then incr count
    done;
    !count
  in
  {
    name;
    n;
    advance = (fun horizon -> Eventsim.run sim ~horizon);
    routes;
    eval_row_ns =
      (fun rng -> time_eval_row p ~input ~labels:(Eventsim.labels sim) rng);
  }

let contagion_of g ~threshold ~seed_frac =
  let p = Best_response.protocol (Contagion.make g ~threshold) () in
  let n = Digraph.num_nodes g in
  let seeds = min n (int_of_float (ceil (seed_frac *. float_of_int n))) in
  (p, Contagion.seeded_config p (List.init seeds Fun.id))

(* Disjoint GOOD GADGET copies: copy c's node i is global node c * ng + i
   and its edge k is global edge c * mg + k, as in [Simlab.build]. *)
let spp_tiling () =
  let pg = Spp.protocol (Spp.good_gadget ()) in
  let gg = pg.Protocol.graph in
  let ng = Digraph.num_nodes gg and mg = Digraph.num_edges gg in
  let copies = nodes / ng in
  let src = Array.make (copies * mg) 0 and dst = Array.make (copies * mg) 0 in
  for c = 0 to copies - 1 do
    for k = 0 to mg - 1 do
      src.((c * mg) + k) <- (c * ng) + Digraph.src gg k;
      dst.((c * mg) + k) <- (c * ng) + Digraph.dst gg k
    done
  done;
  let p =
    {
      Protocol.name = Printf.sprintf "spp-tiled-%d" copies;
      graph = Digraph.create_arrays ~n:(copies * ng) src dst;
      space = pg.Protocol.space;
      react = (fun v x inputs -> pg.Protocol.react (v mod ng) x inputs);
    }
  in
  let no_route = p.Protocol.space.Stateless_core.Label.encode [] in
  (p, Protocol.uniform_config p [], fun c -> c <> no_route)

type scenario = {
  sname : string;
  scenario : Simlab.scenario;
  topology : Simlab.topology;
  graph_seed : int;
  latency : Eventsim.latency;
}

let scenarios ~seed =
  let contagion = Simlab.Contagion { threshold = 0.5; seed_frac = 0.01 } in
  [|
    {
      sname = "ring_const";
      scenario = contagion;
      topology = Simlab.Ring;
      graph_seed = 0;
      latency = Eventsim.Const 0.2;
    };
    {
      sname = "er_exp";
      scenario = contagion;
      topology = Simlab.Erdos_renyi 4.0;
      graph_seed = derive seed "er-graph";
      latency = Eventsim.Exp 0.2;
    };
    {
      sname = "spp_ring";
      scenario = Simlab.Spp_gadget;
      topology = Simlab.Ring;
      graph_seed = 0;
      latency = Eventsim.Const 0.2;
    };
  |]

let sim_seed ~seed sc = derive seed ("eventsim", sc.sname)

(* [Simlab.build]'s own instance of each scenario, run to horizon 1. *)
let reference ~seed =
  Array.map
    (fun sc ->
      let inst =
        Trace.span "simlab.build" (fun () ->
            Simlab.build sc.scenario sc.topology ~graph_seed:sc.graph_seed
              ~nodes ~rate:1.0 ~latency:sc.latency ~faults:Eventsim.no_faults)
      in
      inst.Simlab.run ~seed:(sim_seed ~seed sc) ~horizon:1.0)
    (scenarios ~seed)

(* The benchmark's copy of the same scenarios. *)
let setup ~seed () =
  Array.map
    (fun sc ->
      let arm p ~init ~hit =
        arm ~name:sc.sname ~latency:sc.latency ~seed:(sim_seed ~seed sc) p
          ~init ~hit
      in
      match sc.scenario with
      | Simlab.Contagion { threshold; seed_frac } ->
          let g = Simlab.graph_of sc.topology ~seed:sc.graph_seed ~nodes in
          let p, init = contagion_of g ~threshold ~seed_frac in
          arm p ~init ~hit:(fun c -> c = 1)
      | Simlab.Spp_gadget ->
          let p, init, hit = spp_tiling () in
          arm p ~init ~hit)
    (scenarios ~seed)

(* Per-instance totals over traced slices. *)
type tally = {
  mutable events : int;
  mutable activations : int;
  mutable deliveries : int;
  mutable run_s : float;
}

let run ~seed ~seconds ~trace =
  Trace.set_enabled trace;
  let refs = reference ~seed in
  Trace.set_enabled false;
  let sims, setup_s = repeat_setup ~samples:3 ~reps:1 ~trace (setup ~seed) in
  let g = gate () in
  let tallies =
    Array.map
      (fun _ -> { events = 0; activations = 0; deliveries = 0; run_s = 0. })
      sims
  in
  let last = Array.map (fun _ -> (0, 0, 0)) sims in
  let pending_max = ref 0 in
  let horizon = ref 0. in
  let m =
    measure ~seconds ~trace
      ~more:(fun () -> !horizon < spp_horizon)
      (fun ~traced _ ->
        horizon := !horizon +. slice;
        let events = ref 0 and secs = ref 0. in
        Array.iteri
          (fun k s ->
            Trace.op "simulate.slice" (fun () ->
                let st, dt =
                  timed (fun () ->
                      Trace.span "eventsim.run" (fun () -> s.advance !horizon))
                in
                check g
                  (st.Eventsim.events
                   = st.Eventsim.activations + st.Eventsim.deliveries)
                  (Printf.sprintf "%s: events <> activations + deliveries"
                     s.name);
                let e0, a0, d0 = last.(k) in
                last.(k) <-
                  (st.Eventsim.events, st.Eventsim.activations,
                   st.Eventsim.deliveries);
                events := !events + st.Eventsim.events - e0;
                secs := !secs +. dt;
                if traced then begin
                  let t = tallies.(k) in
                  t.events <- t.events + st.Eventsim.events - e0;
                  t.activations <- t.activations + st.Eventsim.activations - a0;
                  t.deliveries <- t.deliveries + st.Eventsim.deliveries - d0;
                  t.run_s <- t.run_s +. dt;
                  pending_max := max !pending_max st.Eventsim.pending
                end))
          sims;
        if !horizon = 1.0 then
          Array.iteri
            (fun k s ->
              let r = refs.(k) and events, activations, deliveries = last.(k) in
              check g
                (events = r.Simlab.events
                && activations = r.Simlab.activations
                && deliveries = r.Simlab.deliveries
                && s.routes () = r.Simlab.metric)
                (Printf.sprintf
                   "%s: at horizon 1 the copy differs from Simlab.build's \
                    instance"
                   s.name))
            sims;
        if !horizon = spp_horizon then begin
          let s = sims.(2) in
          check g (s.routes () = s.n)
            (Printf.sprintf "spp_ring: %d of %d nodes hold a route at t=%g"
               (s.routes ()) s.n spp_horizon)
        end;
        (float !events, !secs))
  in
  result g ~trace ~setup_s ~work_unit:"events" m (fun () ->
      let self = self_by_name () in
      let rng = Random.State.make [| derive seed "eval_row" |] in
      let ns = Array.map (fun s -> s.eval_row_ns rng) sims in
      let sum f = Array.fold_left (fun a t -> a + f t) 0 tallies in
      let acts = sum (fun t -> t.activations) in
      let run_s = Array.fold_left (fun a t -> a +. t.run_s) 0. tallies in
      let react_s = ref 0. in
      Array.iteri
        (fun k t -> react_s := !react_s +. (ns.(k) *. float t.activations *. 1e-9))
        tallies;
      [
        ("simlab.build_s", self "simlab.build");
        ("eventsim.create_s", self "eventsim.create");
        ("eventsim.run_s", self "eventsim.run");
        ("eventsim.events", float (sum (fun t -> t.events)));
        ("eventsim.activations", float acts);
        ("eventsim.deliveries", float (sum (fun t -> t.deliveries)));
        ("eventsim.pending_max", float !pending_max);
        ( "kernel.eval_row_ns",
          if acts = 0 then 0. else !react_s *. 1e9 /. float acts );
        ("kernel.share", if run_s > 0. then !react_s /. run_s else 0.);
      ]
      @ Array.to_list
          (Array.mapi
             (fun k s ->
               let t = tallies.(k) in
               ( Printf.sprintf "eventsim.%s.events_per_s" s.name,
                 if t.run_s > 0. then float t.events /. t.run_s else 0. ))
             sims)
      @ tail_metrics "eventsim.slice_ms" (durations_ms "eventsim.run"))
