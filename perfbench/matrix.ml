(* Workload [campaign]: the four labs' matrices through [Campaign.run].

   A closed loop of timed passes: each pass runs the whole matrix without
   a journal, one [Campaign.run] per lab after another, as the CLI's
   campaign command runs without --journal, and must merge to the same
   results as the previous pass. After the timed passes, once per run:

   - a journaled run, with an fsync'd journal shared by the four legs (the
     first leg truncates it), whose merged results must equal the timed
     passes', bit for bit;
   - a resume from that journal, which must replay every cell, execute
     none, and merge to the same results again.

   Only the timed passes carry the end-to-end figure: fsync latency on a
   shared virtual disk makes the journaled run's wall time swing between
   runs, so its cost is reported per layer (campaign.journal_s,
   campaign.journaled_cells_per_s and the pool metrics). Everything runs
   on one domain, because a second domain, even parked in the pool between
   jobs, takes part in every stop-the-world minor collection, which on a
   2-vCPU virtual machine slowed the timed run by 10-50% from run to run.
   Instances are small and cache-resident, so this is also the no-change
   control for work on Eventsim's large-instance locality.

   Each lab's cells are cut into seed blocks (the key gets a block suffix),
   giving the matrix hundreds of cells. The seed picks every block's first
   seed ([seed0]) and the sim leg's graph. *)

open Perfbench
open Common
module Campaign = Stateless_campaign.Campaign
module Faultlab = Stateless_faultlab.Faultlab
module Netlab = Stateless_netlab.Netlab
module Byzlab = Stateless_byzlab.Byzlab
module Simlab = Stateless_simlab.Simlab
module Eventsim = Stateless_core.Eventsim
let blocks = 4

(* Cell executions, counted by the wrapper: a resume must not run any. *)
let executions = Atomic.make 0

type leg = {
  lab : string;
  cells : int;
  run :
    span:string ->
    policy:Campaign.policy ->
    Campaign.counts * bool;
      (** one [Campaign.run] of the leg, recorded as span [span]; also
          whether the merged results equal those of the leg's previous run *)
}

let leg (type r) lab (codec : r Campaign.codec) (cells : r Campaign.cell array)
    =
  (* the span of the [Campaign.run] in progress: cells and codec calls
     attach to it explicitly, as they must when run on a pool worker *)
  let under = ref (Trace.here ()) in
  let codec =
    {
      Campaign.encode =
        (fun r ->
          Trace.span ~under:!under "value.encode" (fun () -> codec.encode r));
      decode =
        (fun v ->
          Trace.span ~under:!under "value.decode" (fun () -> codec.decode v));
    }
  in
  let cells =
    Array.map
      (fun (c : r Campaign.cell) ->
        {
          c with
          run =
            (fun ~deadline ~attempt ->
              Atomic.incr executions;
              Trace.op ~under:!under (lab ^ ".cell") (fun () ->
                  c.run ~deadline ~attempt));
        })
      cells
  in
  let previous = ref None in
  let run ~span ~policy =
    let o =
      Trace.span span (fun () ->
          under := Trace.here ();
          Campaign.run ~domains:1 ~policy ~codec cells)
    in
    let results =
      Array.map (fun (r : r Campaign.record) -> r.result) o.Campaign.records
    in
    let same = Option.fold ~none:true ~some:(( = ) results) !previous in
    previous := Some results;
    (o.Campaign.counts, same)
  in
  { lab; cells = Array.length cells; run }

(* [blocks] copies of a lab's cells over consecutive seed blocks. *)
let blocked make =
  Array.concat
    (List.init blocks (fun b ->
         Array.map
           (fun (c : _ Campaign.cell) ->
             { c with key = Printf.sprintf "%s/b%d" c.key b })
           (make b)))

let setup ~seed () =
  let seed0 = 1 + derive seed "seed0" in
  let faults =
    blocked (fun b ->
        Array.concat
          (List.map
             (Faultlab.cells ~seeds:256 ~seed0:(seed0 + (256 * b)) ~batch:16)
             (Faultlab.default_scenarios ())))
  in
  let netlab =
    blocked (fun b ->
        Array.concat
          (List.map
             (Netlab.cells ~seeds:32 ~storm:200 ~seed0:(seed0 + (32 * b))
                ~budget:{ Netlab.k = 4; window = 8 })
             (Netlab.default_scenarios ())))
  in
  let byz =
    blocked (fun b ->
        Array.concat
          (List.map
             (Byzlab.cells ~seeds:32 ~attack:200 ~seed0:(seed0 + (32 * b))
                ~strategy:Byzlab.Seeded_random)
             (Byzlab.default_scenarios ())))
  in
  (* the CLI campaign's sim leg: 2000-node contagion with lossy links *)
  let inst =
    Trace.span "simlab.build" (fun () ->
        Simlab.build
          (Simlab.Contagion { threshold = 0.5; seed_frac = 0.01 })
          Simlab.Ring ~graph_seed:(derive seed "sim-graph") ~nodes:2000
          ~rate:1.0 ~latency:(Eventsim.Exp 1.0)
          ~faults:{ Eventsim.no_faults with loss = 0.05; dup = 0.02 })
  in
  let sim = Simlab.cells inst ~seed0 ~runs:(2 * blocks) ~horizon:20.0 in
  [
    leg "faultlab" Faultlab.codec faults;
    leg "netlab" Netlab.codec netlab;
    leg "byzlab" Byzlab.codec byz;
    leg "simlab" Simlab.codec sim;
  ]

let journaled ~journal ~resume =
  { Campaign.default_policy with journal = Some journal; resume }

let count_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0

(* Counters over traced passes and the journaled run. *)
type tally = {
  mutable ok : int;
  mutable timeout : int;
  mutable error : int;
  mutable replayed : int;
  mutable records : int;
  mutable bytes : int;
  mutable journaled_cells : int;
}

let run ~seed ~seconds ~trace =
  let legs, setup_s = repeat_setup ~samples:9 ~reps:10 ~trace (setup ~seed) in
  let journal =
    Filename.concat "_build"
      (Printf.sprintf "perfbench/campaign-%d.journal" seed)
  in
  let g = gate () in
  let t =
    {
      ok = 0;
      timeout = 0;
      error = 0;
      replayed = 0;
      records = 0;
      bytes = 0;
      journaled_cells = 0;
    }
  in
  let executed ~traced (l : leg) (c : Campaign.counts) same what =
    if traced then begin
      t.ok <- t.ok + c.ok;
      t.timeout <- t.timeout + c.timeout;
      t.error <- t.error + c.error
    end;
    g.attempted <- g.attempted + l.cells;
    let bad = if same then l.cells - c.ok else l.cells in
    g.failed <- g.failed + bad;
    if bad > 0 then
      Printf.eprintf "check failed: %s %s: %d of %d cells ok, results %s\n%!"
        l.lab what c.ok l.cells
        (if same then "equal" else "differ from the leg's previous run")
  in
  let m =
    measure ~seconds ~trace (fun ~traced _ ->
        Trace.op "campaign.pass" (fun () ->
            List.fold_left
              (fun (ok, secs) l ->
                let (c, same), dt =
                  timed (fun () ->
                      l.run ~span:"campaign.run"
                        ~policy:Campaign.default_policy)
                in
                executed ~traced l c same "timed run";
                (ok +. float c.ok, secs +. dt))
              (0., 0.) legs))
  in
  (* Once per run, after the timed passes: the journaled run and its
     resume, traced in the traced run. *)
  Trace.set_enabled trace;
  List.iteri
    (fun k l ->
      let c, same =
        l.run ~span:"campaign.journal"
          ~policy:(journaled ~journal ~resume:(k > 0))
      in
      t.journaled_cells <- t.journaled_cells + c.ok;
      executed ~traced:trace l c same "journaled run")
    legs;
  t.records <- count_lines journal;
  t.bytes <- (Unix.stat journal).Unix.st_size;
  List.iter
    (fun l ->
      let before = Atomic.get executions in
      let c, same =
        l.run ~span:"campaign.replay" ~policy:(journaled ~journal ~resume:true)
      in
      let ran = Atomic.get executions - before in
      t.replayed <- t.replayed + c.replayed;
      check g
        (c.replayed = l.cells && ran = 0 && same)
        (Printf.sprintf
           "%s: resume replayed %d of %d cells, ran %d, merged results %s"
           l.lab c.replayed l.cells ran
           (if same then "equal" else "differ")))
    legs;
  Trace.set_enabled false;
  (try Sys.remove journal with Sys_error _ -> ());
  result g ~trace ~setup_s ~work_unit:"cells" m (fun () ->
      let self = self_by_name () in
      let spans = Trace.spans () in
      let by_id = Hashtbl.create 4096 in
      List.iter (fun (s : Trace.span) -> Hashtbl.replace by_id s.id s) spans;
      let wall name =
        List.fold_left
          (fun a (s : Trace.span) ->
            if s.name = name then a +. (s.stop -. s.start) else a)
          0. spans
      in
      (* cells of the timed run, and of the journaled run *)
      let cells_under run =
        List.filter
          (fun (s : Trace.span) ->
            List.exists (fun l -> s.name = l.lab ^ ".cell") legs
            && Option.map
                 (fun (p : Trace.span) -> p.name)
                 (Hashtbl.find_opt by_id s.parent)
               = Some run)
          spans
      in
      let timed_cells = cells_under "campaign.run" in
      let busy =
        List.fold_left
          (fun a (s : Trace.span) -> a +. (s.stop -. s.start))
          0.
          (cells_under "campaign.journal")
      in
      let journal_wall = wall "campaign.journal" in
      let cell_s lab =
        List.fold_left
          (fun a (s : Trace.span) ->
            if s.name = lab ^ ".cell" then a +. (s.stop -. s.start) else a)
          0. timed_cells
      in
      [
        ("simlab.build_s", self "simlab.build");
        ("campaign.run_s", self "campaign.run");
        ("campaign.journal_s", self "campaign.journal");
        ("campaign.replay_s", self "campaign.replay");
        ( "campaign.journaled_cells_per_s",
          if journal_wall > 0. then float t.journaled_cells /. journal_wall
          else 0. );
        ("campaign.journal_records", float t.records);
        ("campaign.journal_bytes", float t.bytes);
        ("campaign.ok", float t.ok);
        ("campaign.timeout", float t.timeout);
        ("campaign.error", float t.error);
        ("campaign.replayed", float t.replayed);
        ("value.encode_s", self "value.encode");
        ("value.decode_s", self "value.decode");
        ("pool.busy_s.0", busy);
        ( "pool.busy_share",
          if journal_wall > 0. then busy /. journal_wall else 0. );
      ]
      @ List.map (fun l -> (l.lab ^ ".cell_s", cell_s l.lab)) legs
      @ tail_metrics "campaign.cell_ms"
          (List.map
             (fun (s : Trace.span) -> (s.stop -. s.start) *. 1e3)
             timed_cells))
