(** Shared envelope for the [BENCH_*.json] emitters.

    Every benchmark leg writes the same outer shape —
    [{ "benchmark": ..., "host": ..., "batch": ..., "certification": ...,
    <leg-specific fields> }] — so the envelope lives here once and each
    leg only provides a body printer for its own fields. CI's artifact
    glob and its ["\"identical\": false"] grep rely on this shape staying
    uniform across legs. *)

(** Short git revision of the working tree, or ["unknown"] outside a
    checkout. *)
val git_rev : unit -> string

(** Provenance block shared by every [BENCH_*.json]: OCaml version,
    [Domain.recommended_domain_count], the domain count used, and
    {!git_rev}, suffixed ["+dirty"] when tracked files differ from that
    revision (the numbers then come from uncommitted code). Returned as a
    JSON object string. *)
val host : domains:int -> unit -> string

(** Peak resident set size of this process in kB, from Linux's
    [/proc/self/status] [VmHWM] line; [-1] where unavailable. The
    high-water mark is monotone over the process lifetime — legs that
    report per-instance peaks must run instances in ascending size
    order. *)
val peak_rss_kb : unit -> int

(** Envelope schema version, emitted as ["schema_version"] by {!write}.
    Bumped on incompatible envelope changes. *)
val schema_version : int

(** [write ~benchmark ?host ?batch ?cells ?certification oc body] prints
    the envelope — opening brace, benchmark name, schema version,
    optional host block, optional [(k, identical)] lock-step batch
    summary, optional [(ok, timeout, error)] campaign-cell accounting,
    optional pre-rendered certification rows — then calls [body oc] to
    print the leg's remaining comma-separated fields (each line indented
    two spaces, no trailing comma after the last field), and closes the
    object. *)
val write :
  benchmark:string ->
  ?host:string ->
  ?batch:int * bool ->
  ?cells:int * int * int ->
  ?certification:string list ->
  out_channel ->
  (out_channel -> unit) ->
  unit

(** [to_file path emit] writes [emit oc] to [path ^ ".tmp"] and renames
    it over [path], so a crash mid-write never leaves a truncated file
    at the visible path. The temp file is removed if [emit] raises. *)
val to_file : string -> (out_channel -> unit) -> unit
