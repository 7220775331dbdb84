(** Order statistics for the benchmark's reported figures. *)

(** Median of a non-empty sample (mean of the two middle values for an
    even count).
    @raise Invalid_argument on an empty sample. *)
val median : float list -> float

(** [nearest_rank sorted ~per10k] is the nearest-rank percentile at
    [per10k / 10000] of an ascending, non-empty array: the element at
    rank [ceil (per10k * n / 10000)], computed in integers so that, for
    example, p90 of 100 samples is exactly the 90th. *)
val nearest_rank : float array -> per10k:int -> float

(** A latency distribution as the benchmark reports it: the median, the
    highest of p99.99, p99.9, p99 and p90 that has at least ten samples
    beyond its rank (the median when none has), and the sample count. *)
type tail = { n : int; p50 : float; tail_pct : float; tail : float }

val tail : float list -> tail
