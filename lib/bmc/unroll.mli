(** Time-frame expansion of sequential circuits.

    Unrolling replaces each register by its reset constant in frame 0
    and by (a copy of) its next-state function from the previous frame
    afterwards; primary inputs get one fresh copy per frame.  The
    result is the purely combinational circuit the RTL satisfiability
    engines operate on — "b01_1(10) is a BMC problem … expanded for 10
    time-frames" (§3.1).

    Only the sequential cone of influence of the given roots (the
    property) is copied, plus every primary input in every frame, so
    {!input_at} is defined for all inputs and a model replays through
    the simulator on the source.  Every frame is built through one
    folding, hash-consing constructor ({!Rtlsat_rtl.Opt}): reset
    constants fold forward and logic that repeats across frames is
    shared, so {!node_at} for two frames (or two source nodes) may
    return the same node. *)

open Rtlsat_rtl

type t

val unroll :
  ?free_init:bool -> Ir.circuit -> roots:Ir.node list -> frames:int -> t
(** Unroll [frames] time frames of the cone of [roots] (through
    registers) and of every primary input.  With [free_init] (default
    false) frame-0 registers become fresh primary inputs instead of
    their reset constants — the arbitrary starting state of a
    k-induction step.  @raise Invalid_argument if [frames < 1] or a
    register in the cone is unconnected. *)

val extend : t -> frames:int -> unit
(** Frame-incremental unrolling: grow to [frames] time frames, reusing
    frames [0..frames u - 1] untouched and appending only the new
    copies to the same combinational circuit.  The new last frame's
    outputs that lie in the cone are registered as ["name@frame"].  No-op when [frames] is
    not larger than the current count. *)

val combo : t -> Ir.circuit
(** The unrolled, purely combinational circuit. *)

val source : t -> Ir.circuit
val frames : t -> int

val node_at : t -> Ir.node -> int -> Ir.node
(** [node_at u n f] is the image of source node [n] in frame [f]
    (0-based).  Images are hash-consed, so distinct frames or nodes
    may share one image (a constant, say).  @raise Not_found for
    foreign nodes or frames and for nodes outside the cone. *)

val input_at : t -> Ir.node -> int -> Ir.node
(** Same, restricted to primary inputs; defined for every input of
    the source in every frame, inside the cone or not.  Each is a
    distinct fresh input of the combinational circuit. *)
