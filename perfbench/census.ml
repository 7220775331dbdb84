(* The census slice of the [certify] workload: many small verdicts, the
   enumerate-and-certify loop.

   Seeded random protocols from [Proptest.protocol_of], drawn in blocks
   with one protocol per stratum of (nodes, |Σ|, r, extra edges), so every
   block has the same mix of sizes whatever the seed. Each protocol gets
   four verdicts on one domain, issued one after another: Checker label
   and output, Netcheck label with k = 0 and Byzcheck output with B = ∅.
   With no adversary the two adversarial certifiers explore the plain
   checker's graph, so their verdicts and state counts must agree with it. *)

open Perfbench
open Common
module Protocol = Stateless_core.Protocol
module Proptest = Stateless_core.Proptest

let strata =
  List.concat_map
    (fun nodes ->
      List.concat_map
        (fun card ->
          List.concat_map
            (fun r -> List.map (fun extra -> (nodes, card, r, extra)) [ 0; 1; 2 ])
            [ 1; 2 ])
        [ 2; 3 ])
    [ 3; 4 ]

(* Blocks generated up front; a run cycles through them, [per_pass] blocks
   after each frontier pass. *)
let blocks = 64
let per_pass = 16
let max_states = 2_000_000

type item = { p : (int, int) Protocol.t; input : int array; r : int }

let setup ~seed () =
  Array.init blocks (fun b ->
      Array.of_list
        (List.mapi
           (fun s (nodes, card, r, extra) ->
             let p, input =
               Proptest.protocol_of ~name:"census" ~seed:(derive seed (b, s))
                 ~nodes ~extra ~card ()
             in
             { p; input; r })
           strata))

let verdicts g { p; input; r } =
  let name = p.Protocol.name in
  let label = Explore.checker ~mode:`Label p ~input ~r ~max_states in
  let output = Explore.checker ~mode:`Output p ~input ~r ~max_states in
  let net = Explore.netcheck ~mode:`Label p ~input ~r ~k:0 ~window:1 ~max_states in
  let byz = Explore.byzcheck ~mode:`Output p ~input ~byz:[] ~r ~max_states in
  let all = [ label; output; net; byz ] in
  List.iter
    (fun (o : Explore.outcome) ->
      check g (o.conclusive && o.replayed)
        (Printf.sprintf "%s r=%d: inconclusive verdict or witness fails replay"
           name r))
    all;
  let agree (a : Explore.outcome) (b : Explore.outcome) what =
    check g
      (a.oscillating = b.oscillating && a.states = b.states)
      (Printf.sprintf "%s r=%d: %s disagrees with Checker" name r what)
  in
  agree label net "Netcheck k=0";
  agree output byz "Byzcheck B=empty";
  List.fold_left (fun s (o : Explore.outcome) -> s +. o.seconds) 0. all

(* Verdicts of one block. *)
let work = float (4 * List.length strata)

(* The [per_pass] blocks that follow frontier pass [i]: their verdicts and
   the verdicts' wall time. *)
let pass g slice i =
  let secs = ref 0. in
  for j = 0 to per_pass - 1 do
    let b = ((i * per_pass) + j) mod blocks in
    Array.iter
      (fun item ->
        secs := !secs +. Trace.op "census.protocol" (fun () -> verdicts g item))
      slice.(b)
  done;
  (float per_pass *. work, !secs)
