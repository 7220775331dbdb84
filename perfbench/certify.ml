(* Workload [certify]: the paper's core result, the explorer used one big
   verdict at a time and many small ones.

   Each closed-loop pass (on one domain; the next verdict is issued when
   the previous one returns) runs a fixed frontier list, the largest
   instances the certifiers handle here, then a census slice of small
   seeded protocols ([Census]). The frontier covers the direct and hashed
   Stateset modes, symmetry reduction on cliques and rings, and the two
   adversarial certifiers; its certified states per second is the gated
   figure. The census slice's verdicts per second is printed beside it.
   The seed picks the census protocols and the Byzantine node of the
   frontier (every choice is equivalent under S_4, so the frontier's work
   is the same on every seed). *)

open Perfbench
open Common
module Symmetry = Explore.Symmetry
module Protocol = Stateless_core.Protocol
module Clique_example = Stateless_core.Clique_example
module Label = Stateless_core.Label
module Builders = Stateless_graph.Builders

type entry = {
  name : string;
  oscillates : bool;  (** the verdict the paper predicts *)
  verify : (unit -> bool) option;  (** [Symmetry.verify] on reduced instances *)
  verdict : unit -> Explore.outcome;
}

(* Example 1 on K_n is label (n-2)-stabilizing but not (n-1)-stabilizing
   (Theorem 3.1 and the paper's oscillation argument); the copy ring rotates
   a non-uniform labeling forever. *)
let setup ~seed () =
  let k4 = Clique_example.make 4 and k4_in = Clique_example.input 4 in
  let k5 = Clique_example.make 5 and k5_in = Clique_example.input 5 in
  let ring13 : (unit, int) Protocol.t =
    {
      Protocol.name = "copy-ring-uni-5-c13";
      graph = Builders.ring_uni 5;
      space = Label.int 13;
      react = (fun _ () incoming -> ([| incoming.(0) |], incoming.(0)));
    }
  in
  let ring13_in = Array.make 5 () in
  let s4, s5, rot =
    Trace.span "symmetry.group" (fun () ->
        ( Symmetry.clique k4.Protocol.graph,
          Symmetry.clique k5.Protocol.graph,
          Symmetry.ring ring13.Protocol.graph ))
  in
  let verify p input sym () =
    Trace.span "symmetry.verify" (fun () -> Symmetry.verify p ~input sym)
  in
  let byz = [ seed land 3 ] in
  [
    {
      name = "example1_k4_r3_label";
      oscillates = true;
      verify = None;
      verdict =
        (fun () ->
          Explore.checker ~mode:`Label k4 ~input:k4_in ~r:3
            ~max_states:2_000_000);
    };
    {
      name = "example1_k4_r2_output";
      oscillates = false;
      verify = None;
      verdict =
        (fun () ->
          Explore.checker ~mode:`Output k4 ~input:k4_in ~r:2
            ~max_states:2_000_000);
    };
    {
      name = "example1_k4_r2_sym";
      oscillates = false;
      verify = Some (verify k4 k4_in s4);
      verdict =
        (fun () ->
          Explore.checker ~symmetry:s4 ~mode:`Label k4 ~input:k4_in ~r:2
            ~max_states:2_000_000);
    };
    {
      name = "example1_k5_r2_sym";
      oscillates = false;
      verify = Some (verify k5 k5_in s5);
      verdict =
        (fun () ->
          Explore.checker ~symmetry:s5 ~mode:`Label k5 ~input:k5_in ~r:2
            ~max_states:40_000_000);
    };
    {
      name = "copy_ring_c13_r2_sym";
      oscillates = true;
      verify = Some (verify ring13 ring13_in rot);
      verdict =
        (fun () ->
          Explore.checker ~symmetry:rot ~mode:`Label ring13 ~input:ring13_in
            ~r:2 ~max_states:12_000_000);
    };
    {
      name = "netcheck_k4_r2_k1_w2";
      oscillates = true;
      verify = None;
      verdict =
        (fun () ->
          Explore.netcheck ~mode:`Output k4 ~input:k4_in ~r:2 ~k:1 ~window:2
            ~max_states:2_000_000);
    };
    {
      name = "byzcheck_k4_r2_b1";
      oscillates = true;
      verify = None;
      verdict =
        (fun () ->
          Explore.byzcheck ~mode:`Output k4 ~input:k4_in ~byz ~r:2
            ~max_states:2_000_000);
    };
  ]

let run ~seed ~seconds ~trace =
  let (entries, slice), setup_s =
    repeat_setup ~samples:9 ~reps:5 ~trace (fun () ->
        (setup ~seed (), Census.setup ~seed ()))
  in
  let g = gate () in
  (* certified counts of the first pass: every later pass must repeat them *)
  let reference = Hashtbl.create 8 in
  (* the census slice's verdicts and their wall time, untraced passes *)
  let census = ref (0., 0.) in
  let frontier () =
    List.fold_left
      (fun (states, secs) e ->
        Trace.op "certify.verdict" (fun () ->
            Option.iter
              (fun verify ->
                check g (verify ()) (e.name ^ ": Symmetry.verify"))
              e.verify;
            let o = e.verdict () in
            check g
              (o.conclusive && o.oscillating = e.oscillates && o.replayed)
              (Printf.sprintf "%s: verdict (conclusive %b, oscillating %b, \
                               replayed %b)"
                 e.name o.conclusive o.oscillating o.replayed);
            (match Hashtbl.find_opt reference e.name with
            | None -> Hashtbl.replace reference e.name o.certified
            | Some n ->
                check g (n = o.certified)
                  (Printf.sprintf "%s: %d certified states, first pass %d"
                     e.name o.certified n));
            (states + o.certified, secs +. o.seconds)))
      (0, 0.) entries
  in
  let m =
    measure ~seconds ~trace (fun ~traced i ->
        let states, secs = frontier () in
        let verdicts, census_s = Census.pass g slice i in
        if not traced then
          census := (fst !census +. verdicts, snd !census +. census_s);
        (float states, secs))
  in
  (* K4 r=2 reduced by S_4 certifies the unreduced K4 r=2 graph *)
  let certified name = Option.value ~default:0 (Hashtbl.find_opt reference name) in
  check g
    (certified "example1_k4_r2_sym" = certified "example1_k4_r2_output")
    "K4 r=2: reduced and unreduced certify different state counts";
  let verdicts, census_s = !census in
  result g ~trace ~setup_s ~work_unit:"states" m
    ~notes:[ ("verdicts_per_s", verdicts /. census_s, "verdicts/s") ]
    (fun () ->
      Explore.layer_metrics (self_by_name ())
      @ tail_metrics "checker.verdict_ms"
          (durations_ms ~within:"census.protocol" "checker.verdict"))
