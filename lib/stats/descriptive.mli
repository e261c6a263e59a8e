(** Descriptive statistics over float samples.

    The paper (§3.2) asks that reported averages come with "standard
    deviations and other descriptors of the distributions of all
    numbers"; {!summary} is that descriptor set. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  median : float;
}

val mean : float array -> float
val variance : float array -> float
(** Sample variance (n-1 denominator); 0 for samples of size < 2. *)

val stddev : float array -> float

val quantile : float array -> float -> float
(** [quantile xs q] with [q] in [0, 1]; linear interpolation between
    order statistics.  @raise Invalid_argument on empty input or [q]
    outside [0, 1]. *)

val median : float array -> float

(* kept: a one-call summary for library users; tested directly *)
val summarize : float array -> summary
(** @raise Invalid_argument on empty input. *)

val of_ints : int array -> float array

val min_avg : int array -> string
(** The paper's "minimum/average" cell format, e.g. ["333/639"];
    average rounded to the nearest integer. *)
