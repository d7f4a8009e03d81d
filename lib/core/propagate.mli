(** Hybrid deduction — the [Ddeduce()] of Algorithm 1.

    Event-driven propagation to bounds consistency: Boolean constraint
    propagation over (hybrid) clauses and interval constraint
    propagation over the arithmetic constraints (§2.2), every deduced
    fact carrying its antecedent atoms for the hybrid implication
    graph.

    Each trail event visits one watch slot of {!State.t}: the slot of
    the atoms its direction can falsify (a lower-bound event on [v]
    visits slot [2v], an upper-bound event slot [2v+1]).  In that slot,
    a watch that is not falsified, or whose partner watch is entailed,
    stays.  Otherwise the watch moves to another non-falsified atom, or
    the clause propagates its other watch, or it is in conflict.  The
    event then wakes every constraint over [v], each evaluated over its
    compiled {!State.row} with no allocation until a tightening needs
    its explanation.  With observability on, the same calls run inside
    the Bcp and Icp spans. *)

open Rtlsat_constr.Types

exception Propagation_timeout
(** Raised by {!run} when [deadline] passes mid-fixpoint, or when the
    [cancel] flag is observed set.  Interval propagation can converge
    arbitrarily slowly (a wrap-around constraint over a 61-bit word
    may tighten a bound by 1 per sweep), so the fixpoint loop itself
    has to watch the clock — callers only regain control between
    propagation calls. *)

val run :
  ?full:bool ->
  ?deadline:float ->
  ?cancel:bool Atomic.t ->
  State.t ->
  atom array option
(** Propagate to fixpoint; [Some conflict] on inconsistency (the atoms
    are entailed and jointly inconsistent).  Clauses on the kernel's
    [recheck] list (attached unit or falsified) are examined first.
    [full] instead scans every clause and constraint once first —
    required for the initial root propagation, where unit clauses have
    produced no events yet.
    [deadline] is compared against the monotonic clock
    ({!Rtlsat_obs.Mono.now}); [cancel] is polled at the same fuel gate
    (every 4096 events), bounding how long a cancelled worker keeps
    running.
    @raise Propagation_timeout when [deadline] passes or [cancel] is
    set. *)

val check_clause : State.t -> int -> unit
(** Examine one clause in full, ignoring its watches: no-op if
    satisfied or undetermined, asserts the unit atom, or @raise
    State.Conflict when falsified. *)

val propagate_constr : State.t -> int -> unit
(** Narrow the variables of one arithmetic constraint, over its
    compiled row.
    @raise State.Conflict on empty domains. *)
