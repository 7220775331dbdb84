(* What every workload hands back to [bench.ml]. *)

open Perfbench

type result = {
  attempted : int;  (** checked operations *)
  failed : int;  (** operations that failed a correctness check *)
  setup_s : float;  (** median over the set-up repetitions *)
  work_per_s : float;  (** the run's work over its timed seconds *)
  batch_rates : float list;  (** the work rate of every batch, for the summary *)
  work_unit : string;  (** what [work_per_s] counts, e.g. "states" *)
  notes : (string * float * string) list;
      (** further figures for the summary: name, value, unit *)
  layers : (string * float) list;  (** per-layer metrics, traced run only *)
}

(* Closed-loop bookkeeping shared by the workloads: every check is one
   attempted operation, and a failed check is reported on stderr. *)
type gate = { mutable attempted : int; mutable failed : int }

let gate () = { attempted = 0; failed = 0 }

let check g ok what =
  g.attempted <- g.attempted + 1;
  if not ok then begin
    g.failed <- g.failed + 1;
    Printf.eprintf "check failed: %s\n%!" what
  end

(* [timed f] is [f ()] and its wall time on the monotonic clock. *)
let timed f =
  let t0 = Trace.clock () in
  let v = f () in
  (v, Trace.clock () -. t0)

(* Set-up, repeated so that its time can be measured: [samples] samples,
   each running [f] [reps] times in a row, so a sub-millisecond set-up is
   timed over tens of milliseconds. The reported set-up time is the median
   over the samples of the time per set-up. [reps] is fixed per workload,
   not calibrated, so every run allocates the same and its peak resident
   set repeats. The product of the last run is kept and only that run is
   traced, so per-layer set-up spans describe one set-up. Earlier products
   are garbage before the next sample starts. *)
let repeat_setup ~samples ~reps ~trace f =
  let rec go k per_setup =
    let t0 = Trace.clock () in
    for _ = 2 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    Trace.set_enabled (trace && k = samples);
    let v = f () in
    Trace.set_enabled false;
    let per = (Trace.clock () -. t0) /. float reps in
    if k = samples then (v, Stats.median (per :: per_setup))
    else begin
      ignore (Sys.opaque_identity v);
      Gc.full_major ();
      go (k + 1) (per :: per_setup)
    end
  in
  go 1 []

(* Self time summed per span name. *)
let self_by_name () =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun ((s : Trace.span), self) ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (prev +. self))
    (Trace.self_times (Trace.spans ()));
  fun name -> Option.value ~default:0. (Hashtbl.find_opt tbl name)

(* Durations in ms of every span with this name, for latency tails; with
   [within], only those inside an operation opened by a span of that name. *)
let durations_ms ?within name =
  let spans = Trace.spans () in
  let ops = Hashtbl.create 1024 in
  Option.iter
    (fun w ->
      List.iter
        (fun (s : Trace.span) -> if s.name = w then Hashtbl.replace ops s.op ())
        spans)
    within;
  List.filter_map
    (fun (s : Trace.span) ->
      if s.name = name && (within = None || Hashtbl.mem ops s.op) then
        Some ((s.stop -. s.start) *. 1e3)
      else None)
    spans

let tail_metrics prefix samples =
  let t = Stats.tail samples in
  [
    (prefix ^ ".p50", t.p50);
    (prefix ^ ".tail", t.tail);
    (prefix ^ ".tail_pct", t.tail_pct);
    (prefix ^ ".n", float t.n);
  ]

type measured = {
  rate : float;  (** work over timed seconds of the untraced batches *)
  rates : float list;  (** work per second of every batch *)
  overhead : float;  (** tracing overhead, traced run only *)
  gc : (string * float) list;
      (** GC counters over the measured window, and the peak heap *)
}

(* The closed loop: [batch ~traced i] runs batch [i] and returns its work
   and the wall time it is rated on. Batches run until [seconds] have
   passed and [more ()] is false; a run has at least one batch. The run's
   rate is the untraced batches' total work over their total time. It is
   not a median of batch rates: a [campaign] or [simulate] batch is shorter
   than the stretches of one to several seconds in which the host's
   neighbours slow it or leave it alone, so batch times fall in two modes,
   and a median jumps between them with the neighbours' share of the run
   (see METRICS.md). The traced run alternates untraced and traced batches
   of identical kind (at least one of each), and its overhead is the traced
   batches' time per unit of work over the untraced ones', minus one. *)
let measure ?(more = fun () -> false) ~seconds ~trace batch =
  let rates = ref [] and traced = ref (0., 0.) and untraced = ref (0., 0.) in
  let before = Gc.quick_stat () in
  let t_end = Trace.clock () +. seconds in
  let i = ref 0 in
  while !i < (if trace then 2 else 1) || more () || Trace.clock () < t_end do
    let on = trace && !i mod 2 = 1 in
    Trace.set_enabled on;
    let work, secs = batch ~traced:on !i in
    Trace.set_enabled false;
    let acc = if on then traced else untraced in
    acc := (fst !acc +. work, snd !acc +. secs);
    rates := (work /. secs) :: !rates;
    incr i
  done;
  let after = Gc.quick_stat () in
  let rate (work, secs) = if secs > 0. then work /. secs else 0. in
  let t = rate !traced and u = rate !untraced in
  {
    rate = u;
    rates = !rates;
    overhead = (if t > 0. then (u /. t) -. 1. else 0.);
    gc =
      [
        ("gc.minor_mwords", (after.minor_words -. before.minor_words) /. 1e6);
        ( "gc.major_collections",
          float (after.major_collections - before.major_collections) );
        (* the major heap's peak over the whole process, set-up included *)
        ( "gc.top_heap_mb",
          float (after.top_heap_words * (Sys.word_size / 8)) /. 1048576. );
      ];
  }

(* The workload's result; [layers] is only evaluated in the traced run. *)
let result ?(notes = []) g ~trace ~setup_s ~work_unit m layers =
  {
    attempted = g.attempted;
    failed = g.failed;
    setup_s;
    work_per_s = m.rate;
    batch_rates = m.rates;
    work_unit;
    notes;
    layers =
      (if trace then (("trace.overhead", m.overhead) :: layers ()) @ m.gc
       else []);
  }

(* Per-seed derivation: every input of a workload is a pure function of
   the benchmark's seed argument. *)
let derive seed parts = Hashtbl.hash (seed, parts) land 0x3FFFFFFF
