(** Node-automorphism groups for symmetry-reduced exploration.

    A group element is a node permutation [π] that is a graph automorphism;
    it induces an edge permutation [σ] ([σ(e)] is the edge from [π(src e)]
    to [π(dst e)]). When the protocol is equivariant under the group — every
    node runs the same reaction, inputs are constant along orbits — the
    group acts on checker states [(ℓ, x)] by relabeling positions, and the
    states-graph is invariant under that action. The explorer can then
    intern one canonical representative per orbit and explore the quotient,
    shrinking the reachable graph by up to the group order (n! on cliques,
    2n on rings) while preserving the stabilization verdict; see DESIGN.md
    for the soundness argument.

    Groups are closed under composition and contain the identity (element
    [0] of {!node_perms}); the constructors guarantee this. *)

type t

(** Number of group elements (identity included). *)
val order : t -> int

val num_nodes : t -> int
val num_edges : t -> int

(** [node_perms t] — element [g] maps node [i] to [(node_perms t).(g).(i)].
    Element [0] is the identity. Owned by [t]; callers must not mutate. *)
val node_perms : t -> int array array

(** [edge_perms t] — the edge permutation induced by each element, same
    indexing as {!node_perms}. Owned by [t]; callers must not mutate. *)
val edge_perms : t -> int array array

(** A generating set of node permutations (identity excluded; the whole
    group when no smaller set is known). {!verify} checks only generators:
    equivariance is closed under composition, so generator equivariance
    implies equivariance of every element. *)
val generators : t -> int array array

(** The full symmetric group S_n acting on a clique. Rejects graphs that
    are not cliques and [n > 8] (the group has [n!] elements).
    @raise Invalid_argument accordingly. *)
val clique : Stateless_graph.Digraph.t -> t

(** The dihedral candidates (n rotations, n reflections) filtered to the
    automorphisms of the given graph — all [2n] on a bidirectional ring,
    the [n] rotations on a unidirectional ring. The result is a group
    because it is the intersection of two groups.
    @raise Invalid_argument when no rotation except the identity survives
    (the graph is not a ring in the expected node numbering). *)
val ring : Stateless_graph.Digraph.t -> t

(** [of_node_perms g perms] builds a group from explicit node permutations:
    validates each is an automorphism of [g], adds the identity, dedupes,
    and checks closure under composition.
    @raise Invalid_argument on non-permutations, non-automorphisms, or a
    set that is not closed. *)
val of_node_perms : Stateless_graph.Digraph.t -> int array list -> t

(** [verify p ~input t] checks protocol equivariance under the group's
    {!generators}, node by node: for every generator [π] (with edge
    permutation [σ]), node [i] and tuple of labels on [i]'s in-edges,
    node [π i]'s reaction, given the tuple moved along [σ] and its own
    input, returns [i]'s out-labels moved along [σ] and the same output.
    A step applies each active node's reaction to the old labeling, so
    this is equivalent to "stepping then permuting equals permuting then
    stepping with the permuted activation set, with outputs matching at
    permuted positions" on every labeling and activation set. It checks
    every tuple, at a cost of [|Σ|^indeg(i)] pairs of reactions per
    generator and node, so [true] proves the protocol equivariant and
    [false] proves it is not. Since [indeg(i) <= m], that is at most
    [n |Σ|^m] pairs per generator; {!Checker} bounds [|Σ|^m] by
    [max_states] before calling it.
    @raise Invalid_argument when the graph shape does not match [t], or
    when a node's in-label tuples are too many to count in an [int]. *)
val verify : ('x, 'l) Stateless_core.Protocol.t -> input:'x array -> t -> bool
