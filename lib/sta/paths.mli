(** Critical-path set extraction.

    Implements the heuristic the paper adopts from Ramalingam et al. [11]
    to sidestep path-set explosion: extract, for every cell, the single
    longest path through that cell, then prune duplicates. The resulting
    unique set is the constraint set Pi of the optimization. *)

open Fbb_netlist

type path = {
  gates : Netlist.id array;  (** gate sequence, source to sink *)
  delay : float;  (** path delay under the originating analysis *)
}

val through_cell : Timing.t -> path array
(** The pruned unique set of per-cell longest paths, sorted by decreasing
    delay. Every combinational gate and flip-flop launch appears on at
    least one path. *)

val delay_of : Timing.t -> Netlist.id array -> float
(** Recompute a gate sequence's delay under another analysis (used to
    check a path under different bias assignments). *)

val pp : Timing.t -> Format.formatter -> path -> unit
(** Human-readable one-line rendering. *)
