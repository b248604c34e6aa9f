(** Replayable fuzz-case descriptions.

    A case is the full recipe for one differential run — generator seed
    and size, placement row count, slowdown, cluster budget, and the two
    shrinking knobs (level stride and constraint cap). Cases serialize
    to a tiny line-oriented text format so a failure minimized by
    {!Shrink} can be committed under [test/corpus/] and replayed
    forever. *)

type t = {
  seed : int;  (** {!Fbb_netlist.Generators.random_module} seed *)
  gates : int;
  rows : int;  (** placement target rows *)
  beta : float;  (** slowdown coefficient *)
  max_clusters : int;
  level_stride : int;
      (** keep every [stride]-th bias level (1 = all 11); the "coarser
          levels" shrinking dimension *)
  max_paths : int option;
      (** cap the constraint set to its [n] longest-required paths; the
          "fewer paths" shrinking dimension *)
}

val make :
  ?beta:float ->
  ?max_clusters:int ->
  ?level_stride:int ->
  ?max_paths:int ->
  seed:int ->
  gates:int ->
  rows:int ->
  unit ->
  t
(** Defaults: beta 0.06, C = 2, stride 1, no path cap. Raises
    [Invalid_argument] on nonsensical parameters (gates < 8, rows < 2,
    stride < 1, beta outside (0, 1], C < 1). *)

val build : t -> Fbb_core.Problem.t
(** Generate, place and pre-process the case into a problem. Pure in the
    case: equal cases build identical problems. *)

val truncate_paths : Fbb_core.Problem.t -> int -> Fbb_core.Problem.t
(** Keep only the [n] constraints with the largest required reduction,
    in their original order, via {!Fbb_core.Problem.select} (no-op when
    the problem is already smaller). Used by [build] for
    [max_paths] and by the metamorphic re-builds, which must cap the
    transformed problem the same way. *)

val name : t -> string
(** Deterministic, human-readable identifier, e.g.
    [s42-g120-r4-b6.00-c2-st1-pall] — used for corpus filenames. *)

val to_string : t -> string
val of_string : string -> (t, string) result
(** Line-oriented [key value] serialization with a versioned header. *)

val save : dir:string -> t -> string
(** Write the case as [dir/<name>.case] (creating [dir] if needed) and
    return the path. *)

val load : string -> (t, string) result
val load_dir : string -> (string * t) list
(** All [*.case] files of a directory in sorted filename order, paired
    with their paths; missing directory is an empty corpus. Raises
    [Failure] on an unparsable case file — a corrupt corpus should be
    loud, not silently shorter. *)
