(** Scenario wiring for the event-driven simulator: the paper's flagship
    asynchronous systems (Morris threshold contagion, Stable Paths Problem
    gadgets) on generated topologies at up to millions of nodes, plus
    [Parrun]-sharded multi-seed campaigns.

    The protocols differ in label type (contagion announces strategies,
    SPP announces paths), so a built scenario is packaged as an
    {!instance}: an existential closure that creates one {!Eventsim} per
    [(seed, horizon)] pair and returns a packed {!result}. Campaign results
    are pure functions of the seed — wall-clock time is deliberately not a
    field — so sharding a campaign over any domain count is bit-identical
    to running it sequentially. *)

module Eventsim = Stateless_core.Eventsim

(** Topology family, scaled by a node-count parameter at build time. *)
type topology =
  | Ring  (** bidirectional ring *)
  | Torus  (** near-square 2-D torus: [⌊√n⌋ x (n / ⌊√n⌋)] nodes *)
  | Erdos_renyi of float  (** sparse G(n, p) with this average out-degree *)
  | Small_world of int * float  (** Watts–Strogatz [k] and rewiring [beta] *)
  | Pref_attach of int  (** Barabási–Albert attachment count [m] *)

val topology_of_string : string -> (topology, string) result
val topology_name : topology -> string

(** Latency-distribution spellings for CLI flags —
    [const:<c> | uniform:<lo>:<hi> | exp:<mean> | pareto:<alpha>:<xmin>] —
    validated to [Eventsim.check_latency]'s constraints. *)
val latency_of_string : string -> (Eventsim.latency, string) result

val latency_name : Eventsim.latency -> string

(** [graph_of topo ~seed ~nodes] — the actual node count may be slightly
    below [nodes] for [Torus] (nearest rows x cols factorization). *)
val graph_of : topology -> seed:int -> nodes:int -> Stateless_graph.Digraph.t

type scenario =
  | Contagion of { threshold : float; seed_frac : float }
      (** Morris contagion: adopt iff at least [threshold] of in-neighbours
          adopted; the first [ceil (seed_frac * n)] nodes start adopted. *)
  | Spp_gadget
      (** Disjoint tiling of GOOD GADGET copies — [nodes / 4] independent
          BGP systems evaluated in one packed kernel, each converging to
          its unique stable routing tree. *)

val scenario_of_string : string -> (scenario, string) result
val scenario_name : scenario -> string

(** One simulated trajectory, summarized. [metric] is the scenario's
    progress measure (contagion: adopter count; SPP: nodes holding a
    route); [label_hash] is an order-sensitive hash of the packed edge
    labels, the fingerprint campaigns compare across domain counts. *)
type result = {
  seed : int;
  events : int;
  activations : int;
  deliveries : int;
  lost : int;
  duplicated : int;
  crash_windows : int;
  metric : int;
  label_hash : int;
}

(** A built scenario: graph and protocol constructed once (shared read-only
    across domains), simulator per run. [desc] names every build
    parameter the results depend on (scenario, topology, graph seed,
    node count, rate, latency, fault rates) — it seeds campaign config
    fingerprints. [run_poll] is [run] with a cooperative hook: the
    horizon is cut into slices and [poll] is called between them (it may
    raise to abort the run). Slicing does not change the trajectory —
    the simulator's event order is horizon-independent — so [run] and
    [run_poll] return bit-identical results. *)
type instance = {
  nodes : int;
  edges : int;
  scenario : scenario;
  topology : topology;
  desc : string;
  run : seed:int -> horizon:float -> result;
  run_poll : poll:(unit -> unit) -> seed:int -> horizon:float -> result;
}

(** [build scenario topology ~graph_seed ~nodes ~rate ~latency ~faults]
    constructs the graph and protocol. Kernels for instances beyond
    [100_000] nodes are created with [~max_memo_entries:0]. At 10^6 nodes
    the raw tier gives the smaller kernel: 123 MB against 201 MB with memos
    for ring contagion and 321 MB for the SPP tiling, measured at horizon
    5 on one core of a 2-vCPU VM. Memos make SPP no faster (1.64M against
    1.75M events/s) and ring contagion 1.2x faster (2.36M against
    1.94M). *)
val build :
  scenario ->
  topology ->
  graph_seed:int ->
  nodes:int ->
  rate:float ->
  latency:Eventsim.latency ->
  faults:Eventsim.faults ->
  instance

(** [campaign ?domains inst ~seed0 ~runs ~horizon] — [runs] independent
    trajectories with seeds [seed0, seed0 + 1, ...], sharded over the
    {!Parrun} domain pool. Bit-identical for every [domains]. *)
val campaign :
  ?domains:int ->
  instance ->
  seed0:int ->
  runs:int ->
  horizon:float ->
  result array

(** Journal codec for one trajectory: the nine int fields of {!result}
    as a flat list. Exact round-trip. *)
val codec : result Stateless_campaign.Campaign.codec

(** [cells inst ~seed0 ~runs ~horizon] compiles the seed sweep into
    matrix cells — one cell per seed (a single large-[n] trajectory is
    the unit of loss on a crash), key
    ["sim/<scenario>/<topology>/s<idx>"]. The cell runs through
    {!instance.run_poll}, polling its deadline between horizon slices;
    retries reseed by [attempt * Campaign.reseed_stride]. *)
val cells :
  instance ->
  seed0:int ->
  runs:int ->
  horizon:float ->
  result Stateless_campaign.Campaign.cell array

(** [run_matrix inst ~seed0 ~runs ~horizon] runs the seed sweep through
    the campaign orchestrator under [policy]. Returns per-seed results
    in seed order ([None] where the cell timed out or errored) plus the
    ok/timeout/error counts. With the default policy every slot is
    [Some] and equals {!campaign}'s element bit-exactly. *)
val run_matrix :
  ?domains:int ->
  ?policy:Stateless_campaign.Campaign.policy ->
  instance ->
  seed0:int ->
  runs:int ->
  horizon:float ->
  result option array * Stateless_campaign.Campaign.counts
