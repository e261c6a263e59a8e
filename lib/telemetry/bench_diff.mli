(** Bench regression gate: compare [bench.*] gauges between two metric
    snapshots (the JSON written by the bench runner) and flag
    benchmarks whose normalized ns/run grew beyond a tolerance.

    Both sides are scaled by their own [bench.normalization_factor]
    gauge (default 1.0 when absent) before the ratio is taken, so
    cross-machine comparisons lean on the machine-calibration
    discipline the snapshots already record. *)

type row = {
  name : string;
  old_ns : float;
  new_ns : float;
  ratio : float;  (** normalized new / normalized old *)
}

type report = {
  rows : row list;          (** benchmarks present in both snapshots *)
  regressions : row list;   (** ratio > 1 + tolerance *)
  improvements : row list;  (** ratio < 1 - tolerance *)
  only_old : string list;
  only_new : string list;
  old_factor : float;
  new_factor : float;
}

(* kept: the comparison bench-diff runs, tested on in-memory JSON *)
val diff :
  ?prefix:string ->
  tolerance:float ->
  old_json:string ->
  new_json:string ->
  unit ->
  (report, string) result
(** Compare gauges whose name starts with [prefix] (default
    ["bench."]); benchmarks present on only one side are reported but
    never count as regressions. *)

val diff_files :
  ?prefix:string -> tolerance:float -> string -> string ->
  (report, string) result

val render : tolerance:float -> report -> string
(** Human-readable per-benchmark delta table plus a summary line. *)
