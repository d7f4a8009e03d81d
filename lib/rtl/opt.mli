(** Folding, hash-consing node constructor.

    A builder appends nodes to one destination circuit.  Every node
    goes through {!copy}, which first applies constant folding and
    algebraic identities and then structural hashing: an operator over
    the same operands as an earlier node returns that node instead of
    a new one.  {!Rtlsat_bmc.Unroll} builds every time frame through
    one builder, so frame-0 reset constants fold forward and logic
    that repeats across frames is shared.  The rules are purely
    structural and behaviour-preserving (validated against the
    simulator in the test suite). *)

open Ir

type t

val create : string -> t
(** A builder over a fresh, empty circuit of that name. *)

val circuit : t -> circuit
(** The destination circuit.  Primary inputs are added to it directly
    with {!Netlist.input}; they are never hashed. *)

val const : t -> width:int -> int -> node
(** The (shared) constant node of that width and value. *)

val copy : t -> ?name:string -> node -> (node -> node) -> node
(** [copy b n img] is the image of the combinational node [n] of some
    source circuit, with every fanin [m] replaced by [img m] (a node of
    the destination with the same width).  Applies:
    - constant folding of every operator with constant inputs;
    - identities: [x&0=0], [x&1=x], [x|1=1], [x|0=x], [x^x=0] (as
      gates over equal operands), double negation, [mux c t t = t],
      [mux 1 t e = t], [mux 0 t e = e], [mux c 1 0 = c],
      [mux c 0 1 = !c], [x+0=x], [x-0=x], [x-x=0], [1*x=x],
      comparisons of a node with itself, full-width extracts;
    - structural hashing, with the operands of commutative operators
      put in a canonical order.

    The result has the width of [n].  [name] is given to the result
    only when [copy] created it and it is not a constant.
    @raise Invalid_argument on an input or register. *)
