(** Span trees rebuilt from an event stream.

    The one replay of [Span_begin]/[Span_end] events into per-domain
    call trees, shared by every consumer that needs nesting: the
    flight recorder ({!Flight}), folded flamegraph stacks and the
    balance check of {!Trace_export}. Each domain gets its own stack:
    a begin pushes, an end whose name matches the domain's stack top
    pops it and attaches the closed span to the new top (or to the
    roots). Children therefore always ran on their parent's domain;
    work a span fanned out to other domains shows up as separate
    roots.

    Streams cut short keep every event, marked rather than dropped:
    an end with no matching begin (capture started mid-span) becomes
    a flat [Orphan_end] node spanning [ts - dur_s, ts]; a begin whose
    end never came (capture stopped first) becomes a [Never_closed]
    node with zero duration, closed innermost-out so its closed
    descendants keep their place. Each consumer picks its own policy
    from the status. Non-span events are ignored. *)

type status =
  | Closed  (** begin and its matching end both seen *)
  | Orphan_end  (** an end that did not match its domain's stack top *)
  | Never_closed  (** a begin still open when the stream ended *)

type node = {
  sp_name : string;
  sp_dom : int;  (** domain the span ran on *)
  sp_start_s : float;  (** monotonic begin timestamp *)
  sp_dur_s : float;  (** 0 for [Never_closed] *)
  sp_status : status;
  sp_children : node list;
      (** same-domain direct children, in the order they were attached *)
}

type t = {
  roots : node list;
      (** ordered by start time; ties keep completion order *)
  orphan_ends : int;  (** ends that matched no open begin *)
  never_closed : int;  (** begins that never saw their end *)
}

val build : Event.t list -> t

val self_s : node -> float
(** Exclusive time: the node's duration minus its [Closed] direct
    children's durations, floored at 0. *)
