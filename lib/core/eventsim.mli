(** Event-driven continuous-time simulator for stateless protocols.

    Every engine so far activates nodes along a discrete schedule, one global
    step at a time. This module simulates the same protocols in continuous
    time: each node carries an exponential activation clock (a Poisson clock
    of configurable rate) and each edge a latency distribution, and the
    simulation advances by processing the earliest pending event. An
    {b activation} of node [i] reads the last-delivered label code of every
    in-edge, evaluates [i]'s reaction through the packed kernel's compiled
    tier ({!Kernel.eval_row} — table, memo or raw), records the output, and
    schedules one {b delivery} per out-edge at [now + draw(latency)]; a
    delivery simply overwrites its edge's last-delivered slot.

    {b Event storage.} No boxed event records anywhere: each pending-event
    structure is parallel flat arrays (time, edge/node id, payload code),
    three words per in-flight message, and each holds a single priority
    class so ordering across classes is one comparison in the run loop.
    The n activation clocks are simulated by their Poisson superposition —
    a single merged [Exp (n * rate)] clock (one scalar) plus a uniform
    node pick per event, the identical stochastic process with n times
    fewer pending events. Constant-latency deliveries (including sync
    mode) arrive in push order, so they live in a FIFO ring buffer with
    O(1) push and pop; only variable-latency deliveries need a priority
    queue — a flat 4-ary min-heap whose sift loops are allocation-free.

    {b Faults as latency.} Netlab's message faults reduce to latency
    special cases instead of a parallel code path: loss is a delivery
    scheduled at [+∞] (i.e. never pushed), duplication is two pushes with
    independent latency draws, and a crash is a window during which a node's
    activations fire but its reaction is suppressed.

    {b Determinism.} All randomness comes from a counter-based splitmix-style
    generator over 63-bit ints: a draw is a pure function of
    [(seed, stream, counter)], where streams separate merged-clock
    activation gaps, node picks, per-node crash coins, per-edge latencies
    and per-edge fault coins.
    Same seed ⇒ same trajectory, on any machine, under any
    [Parrun] domain count (each campaign run is an independent simulator).

    {b Synchronous anchor.} In [~sync:true] mode every node activates at
    every integer time starting at [0.0], latency is forced to [Const 1.0]
    and faults are off. Deliveries sort before activations at equal times,
    so the activation wave at time [k] reads exactly the configuration
    produced by wave [k - 1] — and {!run} with [~horizon:(float k)]
    (which processes deliveries {e at} the horizon but not activations)
    leaves labels and outputs bit-identical to [Kernel.run] for [k] steps of
    [Schedule.synchronous]. The differential suite pins this across the
    proptest protocol matrix and all kernel tiers. *)

(** Per-edge message latency distribution. Draws are strictly positive for
    all four shapes (uniform requires [0 <= lo <= hi]; a zero draw is
    clamped away by the generator's open-interval uniforms). *)
type latency =
  | Const of float  (** every message takes exactly this long *)
  | Uniform of float * float  (** uniform on [[lo, hi]] *)
  | Exp of float  (** exponential with the given mean *)
  | Pareto of float * float
      (** [Pareto (alpha, xmin)]: heavy tail [xmin * u^(-1/alpha)];
          [alpha <= 1] has infinite mean — stragglers dominate *)

(** Stochastic fault model, applied per delivery / per activation. *)
type faults = {
  loss : float;  (** per-message probability the delivery never happens *)
  dup : float;  (** per-message probability of a second, independent copy *)
  crash : float;
      (** per-activation probability of entering a crash window *)
  crash_len : float;  (** duration of a crash window in simulated time *)
}

val no_faults : faults

type ('x, 'l) t

(** Cumulative counters since {!create}; [time] is the simulation clock
    after the last {!run}, [pending] the number of events still queued
    (in-flight messages plus armed activation clocks — sync mode's n
    per-node clocks, or async mode's single merged clock). *)
type stats = {
  events : int;  (** activations + deliveries processed *)
  activations : int;
  deliveries : int;
  lost : int;
  duplicated : int;
  crash_windows : int;
  time : float;
  pending : int;
}

(** [create ~seed p ~input ~init] compiles [p] through {!Kernel.create}
    (forwarding [max_table_words] / [max_memo_entries] — pass
    [~max_memo_entries:0] for million-node protocols, where the raw tier
    gives the smaller kernel: at 10^6 nodes 123 MB against 201-321 MB with
    memos) and arms every node's activation clock.
    [rate] (default [1.0]) is the Poisson activation rate per node;
    [latency] (default [Exp 1.0]) applies to every edge; [faults] defaults
    to {!no_faults}. [sync] selects the synchronous anchor mode described
    above and overrides rate, latency and faults. *)
val create :
  ?max_table_words:int ->
  ?max_memo_entries:int ->
  ?rate:float ->
  ?latency:latency ->
  ?faults:faults ->
  ?sync:bool ->
  seed:int ->
  ('x, 'l) Protocol.t ->
  input:'x array ->
  init:'l Protocol.config ->
  ('x, 'l) t

(** [run t ~horizon] processes every event strictly before [horizon] plus
    the deliveries at exactly [horizon], then parks the clock at [horizon].
    Resumable: a later call with a larger horizon continues the same
    trajectory. Returns the cumulative {!stats}. *)
val run : ('x, 'l) t -> horizon:float -> stats

val stats : ('x, 'l) t -> stats
val time : ('x, 'l) t -> float

(** The live packed per-edge last-delivered codes, indexed by edge id.
    Kernel-owned; read-only for callers (scenario probes at million-edge
    scale read this instead of decoding a boxed configuration). *)
val labels : ('x, 'l) t -> int array

(** The live per-node outputs (last reaction's output per node). Read-only. *)
val outputs : ('x, 'l) t -> int array

(** Decode the current state into a boxed configuration (allocates; meant
    for small instances and differential tests). *)
val config : ('x, 'l) t -> 'l Protocol.config
