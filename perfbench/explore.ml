(* Verdict calls into the three exhaustive certifiers, shared by the
   [certify] frontier and its census slice. Each call is timed on its own (the
   verdict wall time the end-to-end rates divide by), recorded as a span
   when tracing, and followed by a replay of any oscillation witness. *)

open Perfbench
module Checker = Stateless_checker.Checker
module Stateset = Stateless_checker.Stateset
module Symmetry = Stateless_checker.Symmetry
module Netcheck = Stateless_netlab.Netcheck
module Byzcheck = Stateless_byzlab.Byzcheck
module Protocol = Stateless_core.Protocol

type outcome = {
  conclusive : bool;  (** not [Too_large] *)
  oscillating : bool;
  replayed : bool;  (** every witness replays; [true] without a witness *)
  states : int;  (** explored *)
  certified : int;  (** unreduced states certified *)
  seconds : float;  (** wall time of the verdict call alone *)
}

(* A certifier's stats for one call, in one shape for all three. *)
type stats = { states : int; full : int; edges : int; hits : int; misses : int }

let no_stats = { states = 0; full = 0; edges = 0; hits = 0; misses = 0 }

(* Per-layer counters, accumulated only while tracing. *)
type tally = {
  mutable states : int;
  mutable full : int;
  mutable edges : int;
  mutable hits : int;
  mutable misses : int;
}

let tallies = Hashtbl.create 3

let tally layer =
  match Hashtbl.find_opt tallies layer with
  | Some t -> t
  | None ->
      let t = { states = 0; full = 0; edges = 0; hits = 0; misses = 0 } in
      Hashtbl.replace tallies layer t;
      t

(* Certified states overall, in a hashed Stateset universe, and explored
   and certified under symmetry reduction. *)
let certified = ref 0
let hashed = ref 0
let sym_states = ref 0
let sym_full = ref 0

type classified = Oscillates of (unit -> bool) | Stabilizes | Gives_up

(* One verdict of certifier [layer]: [run] is the call, [stats] reads what
   it published, [classify] maps the verdict (an oscillation carries its
   witness replay). *)
let decide layer ?(hashed_universe = false) ?(reduced = false) ~stats
    ~classify run =
  let v, seconds =
    Common.timed (fun () -> Trace.span (layer ^ ".verdict") run)
  in
  let published = stats () in
  let oscillating, replayed, decided =
    match classify v with
    | Oscillates replay -> (true, Trace.span (layer ^ ".replay") replay, true)
    | Stabilizes -> (false, true, true)
    | Gives_up -> (false, true, false)
  in
  let s = Option.value published ~default:no_stats in
  if Trace.enabled () then begin
    let t = tally layer in
    t.states <- t.states + s.states;
    t.full <- t.full + s.full;
    t.edges <- t.edges + s.edges;
    t.hits <- t.hits + s.hits;
    t.misses <- t.misses + s.misses;
    certified := !certified + s.full;
    if hashed_universe then hashed := !hashed + s.full;
    if reduced then begin
      sym_states := !sym_states + s.states;
      sym_full := !sym_full + s.full
    end
  end;
  {
    conclusive = decided && published <> None;
    oscillating;
    replayed;
    states = s.states;
    certified = s.full;
    seconds;
  }

(* The checker's state key space, card^|E| * r^n: the universe [Stateset]
   picks direct or hashed mode from. *)
let universe p ~r =
  let pow b e =
    let rec go acc e = if e = 0 then acc else go (acc * b) (e - 1) in
    go 1 e
  in
  pow p.Protocol.space.Stateless_core.Label.card (Protocol.num_edges p)
  * pow r (Protocol.num_nodes p)

(* Netcheck and Byzcheck certify every state they explore. *)
let plain states edges : stats = { no_stats with states; full = states; edges }

let checker ?symmetry ~mode p ~input ~r ~max_states =
  decide "checker"
    ~hashed_universe:(universe p ~r > Stateset.direct_cap)
    ~reduced:(symmetry <> None)
    ~stats:(fun () ->
      Option.map
        (fun (s : Checker.stats) : stats ->
          {
            states = s.states;
            full = s.full_states;
            edges = s.edges;
            hits = s.memo_hits;
            misses = s.memo_misses;
          })
        (Checker.last_stats ()))
    ~classify:(function
      | Checker.Oscillating w -> Oscillates (fun () -> Checker.replay p ~input w)
      | Checker.Stabilizing -> Stabilizes
      | Checker.Too_large _ -> Gives_up)
    (fun () ->
      match mode with
      | `Label -> Checker.check_label ?symmetry p ~input ~r ~max_states
      | `Output -> Checker.check_output p ~input ~r ~max_states)

let netcheck ~mode p ~input ~r ~k ~window ~max_states =
  decide "netcheck"
    ~stats:(fun () ->
      Option.map
        (fun (s : Netcheck.stats) -> plain s.states s.edges)
        (Netcheck.last_stats ()))
    ~classify:(function
      | Netcheck.Oscillating w ->
          Oscillates
            (fun () ->
              Netcheck.replay p ~input w && Netcheck.replay_packed p ~input w)
      | Netcheck.Stabilizing -> Stabilizes
      | Netcheck.Too_large _ -> Gives_up)
    (fun () ->
      match mode with
      | `Label -> Netcheck.check_label p ~input ~r ~k ~window ~max_states
      | `Output -> Netcheck.check_output p ~input ~r ~k ~window ~max_states)

let byzcheck ~mode p ~input ~byz ~r ~max_states =
  decide "byzcheck"
    ~stats:(fun () ->
      Option.map
        (fun (s : Byzcheck.stats) -> plain s.states s.edges)
        (Byzcheck.last_stats ()))
    ~classify:(function
      | Byzcheck.Oscillating w ->
          Oscillates
            (fun () ->
              Byzcheck.replay p ~input ~byz w
              && Byzcheck.replay_packed p ~input ~byz w)
      | Byzcheck.Stabilizing -> Stabilizes
      | Byzcheck.Too_large _ -> Gives_up)
    (fun () ->
      match mode with
      | `Label -> Byzcheck.check_label p ~input ~byz ~r ~max_states
      | `Output -> Byzcheck.check_output p ~input ~byz ~r ~max_states)

let ratio a b = if b = 0 then 0. else float a /. float b

(* Per-layer metrics of the explorer, from the traced spans and counters. *)
let layer_metrics self =
  let c = tally "checker" and n = tally "netcheck" and b = tally "byzcheck" in
  [
    ("checker.verdict_s", self "checker.verdict");
    ("checker.replay_s", self "checker.replay");
    ("checker.states", float c.states);
    ("checker.full_states", float c.full);
    ("checker.edges", float c.edges);
    ("checker.memo_hit_rate", ratio c.hits (c.hits + c.misses));
    ("symmetry.group_s", self "symmetry.group");
    ("symmetry.verify_s", self "symmetry.verify");
    ("symmetry.reduction", ratio !sym_full !sym_states);
    ("stateset.hashed_share", ratio !hashed !certified);
    ("netcheck.verdict_s", self "netcheck.verdict");
    ("netcheck.states", float n.states);
    ("netcheck.edges", float n.edges);
    ("byzcheck.verdict_s", self "byzcheck.verdict");
    ("byzcheck.states", float b.states);
    ("byzcheck.edges", float b.edges);
  ]
