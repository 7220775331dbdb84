(** Benchmark-side span recorder for the traced run.

    Spans are recorded around the calls the benchmark itself makes into
    the library's public functions; nothing inside the library is
    instrumented. Each span carries a name, monotonic start and end times,
    the span that caused it and the closed-loop operation it belongs to.
    Spans stay in memory until {!write} dumps them at exit.

    Recording is domain-safe. A span's parent is the innermost open span on
    its own domain, or an explicit {!frame}: that is how a campaign cell run
    by a pool worker attaches to the [Campaign.run] call that scheduled it. *)

(** Monotonic clock, in seconds. *)
val clock : unit -> float

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  op : int;  (** operation id shared by the spans of one request; [-1] outside *)
  domain : int;  (** [Domain.self] of the recording domain *)
  start : float;
  stop : float;
}

(** Recording is off until enabled; when off, {!span} and {!op} cost one
    branch and call their argument directly. *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** An open span and its operation, as a parent for spans on other
    domains. *)
type frame

(** The innermost open span on the calling domain. *)
val here : unit -> frame

(** [span name f] records [f ()] as a child of [under] (default: the
    innermost open span on this domain). *)
val span : ?under:frame -> string -> (unit -> 'a) -> 'a

(** [op name f] is {!span} that also starts a fresh operation id, inherited
    by every span opened inside it. *)
val op : ?under:frame -> string -> (unit -> 'a) -> 'a

(** Every span recorded so far, in no particular order. *)
val spans : unit -> span list

(** [covered ~lo ~hi intervals] is the length of the union of [intervals]
    clipped to [\[lo, hi\]]. *)
val covered : lo:float -> hi:float -> (float * float) list -> float

(** [self_times spans] pairs each span with its self time: its duration
    minus the part of it covered by its children (recorded on any
    domain). *)
val self_times : span list -> (span * float) list

(** [write path spans] writes Chrome trace-event JSON ([ph = "X"] complete
    events, microseconds, one [tid] per domain; id, parent, op and self
    time in [args]). *)
val write : string -> span list -> unit
