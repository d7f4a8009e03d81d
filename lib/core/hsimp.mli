(** Pre/inprocessing over the hybrid clause database.

    Subsumption lifted to bound atoms by interval inclusion — an atom
    [a] implies an atom [b] when every assignment satisfying [a]
    satisfies [b] (e.g. [x <= 5] implies [x <= 9]), so a clause all of
    whose atoms imply into another clause subsumes it.  Self-subsuming
    strengthening drops an atom [b] from a clause [D] when some other
    clause [C] has an atom incompatible with [b] and the rest of [C]
    implies into [D \ {b}] — learned predicate relations, being root
    clauses, act as subsumers and strengtheners here.  Clauses
    satisfied under the root bounds are deleted and atoms falsified
    under them removed.

    Only non-root clauses are ever deleted or strengthened; root
    clauses (problem clauses and learned predicate relations)
    participate solely as subsumers, so [State.grow] and the session
    interface stay sound.  The pass must run at decision level 0;
    everything it removes is implied by the remaining database, so
    learned-clause invariants (each lemma implied by clauses + theory)
    are preserved. *)

type stats = {
  mutable subsumed : int;      (** clauses deleted (incl. root-satisfied) *)
  mutable strengthened : int;  (** atoms removed from surviving clauses *)
}

val run : State.t -> stats
(** Simplify the clause database in place.  The pass builds its own
    occurrence lists; the survivors are compacted and their watches
    re-attached through {!State.filter_clauses}.  Requires decision
    level 0.
    Sound mid-suspension: it never manufactures an empty clause, so a
    pending root conflict still surfaces through propagation. *)
