(** Fixed-width histograms — the distribution descriptors the paper
    says should accompany every reported average (§3.2: data "should
    contain" the "standard deviations and other descriptors of the
    distributions of all numbers"). *)

type t = private {
  lo : float;
  hi : float;
  counts : int array;
  n : int;  (** total observations *)
}

val build : bins:int -> float array -> t
(** [build ~bins xs] spans [[min xs, max xs]]; the top edge is
    inclusive.  A constant sample lands in the middle bin.
    @raise Invalid_argument on empty input or [bins < 1]. *)

(* kept: the bin rule [build] applies, tested point by point *)
val bin_of : t -> float -> int option
(** Bin index of a value; [None] outside the range. *)

val render : ?width:int -> t -> string
(** ASCII bar rendering, one line per bin: range, count, bar. *)
