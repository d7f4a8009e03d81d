(** k-induction on top of the BMC substrate — an unbounded extension
    of the paper's bounded workload (not in the paper; see DESIGN.md
    extensions).

    For increasing [k]: the base case asks for a violation within [k]
    frames from reset (plain BMC with [Any] semantics, decided by
    {!Engine.run_instance}); the step case asks whether, from an
    {e arbitrary} state, [k] consecutive good frames can be followed
    by a bad one.  If the base is satisfiable the property is
    falsified — the base's witness has already replayed through the
    RTL simulator, and one that does not replay answers [Unknown];
    if the step is unsatisfiable the property holds in {e all}
    reachable states.  (No path-uniqueness strengthening: the method
    is sound but may answer [Unknown].) *)

type outcome =
  | Proved of int       (** inductive at depth k *)
  | Falsified of int    (** replayed counterexample of that length from reset *)
  | Unknown             (** max depth or deadline exhausted *)

val prove :
  ?req:Req.t ->
  ?max_k:int ->
  Rtlsat_rtl.Ir.circuit ->
  prop:Rtlsat_rtl.Ir.node ->
  outcome
(** [prove circuit ~prop] with [max_k] defaulting to 20, on the
    [hdpll+s+p] engine.  Both cases run under [req] (default
    {!Req.default}): each solve gets [req.timeout], and the step case
    takes its solver options from {!Engine.hybrid_options}. *)
