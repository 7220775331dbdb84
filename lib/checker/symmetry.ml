module Digraph = Stateless_graph.Digraph
module Protocol = Stateless_core.Protocol
module Label = Stateless_core.Label

type t = {
  n : int;
  m : int;
  node_perms : int array array;
  edge_perms : int array array;
  gens : int array array;
}

let order t = Array.length t.node_perms
let num_nodes t = t.n
let num_edges t = t.m
let node_perms t = t.node_perms
let edge_perms t = t.edge_perms
let generators t = t.gens

let is_permutation n p =
  Array.length p = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun i -> i >= 0 && i < n && not seen.(i) && (seen.(i) <- true; true))
    p

(* The edge permutation induced by node permutation [p], or [None] when
   [p] is not an automorphism of [g]. *)
let edge_perm_of g p =
  let m = Digraph.num_edges g in
  let ep = Array.make m (-1) in
  let ok = ref true in
  for e = 0 to m - 1 do
    let u, v = Digraph.edge g e in
    match Digraph.find_edge g ~src:p.(u) ~dst:p.(v) with
    | Some e' -> ep.(e) <- e'
    | None -> ok := false
  done;
  if !ok then Some ep else None

let perm_key p = String.init (Array.length p) (fun i -> Char.chr p.(i))

let identity n = Array.init n Fun.id
let is_identity p = Array.for_all2 ( = ) p (identity (Array.length p))

(* Assemble a [t] from node permutations known to form a group; moves the
   identity to index 0 and derives edge permutations (validating that each
   element is an automorphism on the way). *)
let make ~what g perms ~gens =
  let n = Digraph.num_nodes g in
  let id, rest = List.partition is_identity perms in
  if id = [] then
    invalid_arg (Printf.sprintf "Symmetry.%s: missing identity" what);
  let nps = Array.of_list (identity n :: rest) in
  let eps =
    Array.map
      (fun p ->
        match edge_perm_of g p with
        | Some ep -> ep
        | None ->
            invalid_arg
              (Printf.sprintf "Symmetry.%s: permutation is not an automorphism"
                 what))
      nps
  in
  { n; m = Digraph.num_edges g; node_perms = nps; edge_perms = eps; gens }

let of_node_perms g perms =
  let n = Digraph.num_nodes g in
  List.iter
    (fun p ->
      if not (is_permutation n p) then
        invalid_arg "Symmetry.of_node_perms: not a permutation of the nodes")
    perms;
  (* Dedupe and force the identity in. *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun p -> Hashtbl.replace tbl (perm_key p) (Array.copy p))
    (identity n :: perms);
  let elems = Hashtbl.fold (fun _ p acc -> p :: acc) tbl [] in
  (* Closure under composition: for a finite subset of a finite group,
     closure under the (total) operation is exactly the subgroup test. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c = Array.init n (fun i -> a.(b.(i))) in
          if not (Hashtbl.mem tbl (perm_key c)) then
            invalid_arg
              "Symmetry.of_node_perms: set is not closed under composition")
        elems)
    elems;
  let gens = List.filter (fun p -> not (is_identity p)) elems in
  make ~what:"of_node_perms" g elems ~gens:(Array.of_list gens)

let clique g =
  let n = Digraph.num_nodes g in
  if n > 8 then invalid_arg "Symmetry.clique: n > 8 (group has n! elements)";
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && not (Digraph.mem_edge g ~src:i ~dst:j) then
        invalid_arg "Symmetry.clique: graph is not a clique"
    done
  done;
  (* All n! permutations by Heap's algorithm. S_n is a group by
     construction, so no closure check is needed (it would be n!^2). *)
  let perms = ref [] in
  let a = identity n in
  let rec heap k =
    if k <= 1 then perms := Array.copy a :: !perms
    else
      for i = 0 to k - 1 do
        heap (k - 1);
        if i < k - 1 then begin
          let j = if k land 1 = 0 then i else 0 in
          let tmp = a.(j) in
          a.(j) <- a.(k - 1);
          a.(k - 1) <- tmp
        end
      done
  in
  heap n;
  (* Adjacent transpositions generate S_n. *)
  let gens =
    Array.init (max 0 (n - 1)) (fun k ->
        let p = identity n in
        p.(k) <- k + 1;
        p.(k + 1) <- k;
        p)
  in
  make ~what:"clique" g !perms ~gens

let ring g =
  let n = Digraph.num_nodes g in
  let rotation k = Array.init n (fun i -> (i + k) mod n) in
  let reflection k = Array.init n (fun i -> ((k - i) mod n + n) mod n) in
  let candidates =
    List.init n rotation @ List.init n reflection
  in
  (* Aut(G) ∩ D_n is an intersection of groups, hence a group. *)
  let surviving =
    List.filter (fun p -> edge_perm_of g p <> None) candidates
  in
  if n >= 2 && edge_perm_of g (rotation 1) = None then
    invalid_arg "Symmetry.ring: rotation by 1 is not an automorphism";
  (* Dedupe (reflections coincide with rotations for n <= 2). *)
  let tbl = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace tbl (perm_key p) p) surviving;
  let elems = Hashtbl.fold (fun _ p acc -> p :: acc) tbl [] in
  let gens = List.filter (fun p -> not (is_identity p)) elems in
  make ~what:"ring" g elems ~gens:(Array.of_list gens)

(* ------------------------------------------------------------------ *)
(* Equivariance check                                                  *)
(* ------------------------------------------------------------------ *)

(* Calls [f digits] on every tuple of length [d] over [card] labels, in
   code order (last position fastest). *)
let iter_tuples ~card d f =
  let digits = Array.make d 0 in
  let rec count acc k =
    if k = 0 then acc
    else if acc > max_int / card then
      invalid_arg "Symmetry.verify: in-label tuples of a node overflow int"
    else count (acc * card) (k - 1)
  in
  for _ = 1 to count 1 d do
    f digits;
    let k = ref (d - 1) in
    while !k >= 0 && digits.(!k) = card - 1 do
      digits.(!k) <- 0;
      decr k
    done;
    if !k >= 0 then digits.(!k) <- digits.(!k) + 1
  done

(* A step applies each active node's reaction to the old labeling, so
   "step then permute = permute then step" holds on every labeling and
   activation set iff it holds for every single node on every tuple of its
   in-labels (each tuple occurs in some labeling: in-edges are distinct). *)
let verify p ~input t =
  if Protocol.num_nodes p <> t.n || Protocol.num_edges p <> t.m then
    invalid_arg "Symmetry.verify: protocol graph shape does not match group";
  let g = p.Protocol.graph and space = p.Protocol.space in
  (* [in_pos.(e)]: position of [e] among its head's in-edges;
     [out_pos.(e)]: among its tail's out-edges. *)
  let in_pos = Array.make t.m 0 and out_pos = Array.make t.m 0 in
  for i = 0 to t.n - 1 do
    Array.iteri (fun k e -> in_pos.(e) <- k) (Digraph.in_edges g i);
    Array.iteri (fun k e -> out_pos.(e) <- k) (Digraph.out_edges g i)
  done;
  let equivariant_at np ep i =
    let ins = Digraph.in_edges g i and outs = Digraph.out_edges g i in
    let j = np.(i) in
    let ok = ref true in
    iter_tuples ~card:space.Label.card (Array.length ins) (fun digits ->
        if !ok then begin
          let incoming = Array.map space.Label.decode digits in
          let moved = Array.copy incoming in
          Array.iteri (fun k e -> moved.(in_pos.(ep.(e))) <- incoming.(k)) ins;
          let out, y = p.Protocol.react i input.(i) incoming in
          let out', y' = p.Protocol.react j input.(j) moved in
          if y <> y' then ok := false;
          Array.iteri
            (fun k e ->
              if
                space.Label.encode out.(k)
                <> space.Label.encode out'.(out_pos.(ep.(e)))
              then ok := false)
            outs
        end);
    !ok
  in
  Array.for_all
    (fun np ->
      match edge_perm_of g np with
      | None -> false
      | Some ep -> Array.for_all (equivariant_at np ep) (Array.init t.n Fun.id))
    t.gens
