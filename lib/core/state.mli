(** Solver kernel: variable bounds, the hybrid trail, the hybrid
    implication graph and the clause database.

    This is the machinery behind §2.4's hybrid implication graph, in
    the bound-atom formulation: every fact on the trail is an atom
    ([b], [¬b], [w ≥ k], [w ≤ k]) together with its decision level and
    an explanation (the antecedent atoms that implied it).  Boolean
    assignments are the singleton bounds [⟨1,1⟩]/[⟨0,0⟩], so the whole
    trail is uniform and conflict analysis works over one atom
    vocabulary. *)

open Rtlsat_constr.Types

type reason = atom array option
(** [None] for decisions; otherwise the antecedent atoms, all entailed
    when the entry was pushed. *)

type entry = {
  eatom : atom;      (** the new fact, in canonical bound form *)
  prev : int;        (** bound value this event replaced (for undo) *)
  eprev : int;
      (** trail index of the previous event on the same variable and
          direction, [-1] for none: the per-bound event chain *)
  elevel : int;
  ereason : reason;
}

exception Conflict of atom array
(** The payload atoms are all entailed and jointly inconsistent. *)

(** A linear constraint compiled once into flat arrays: [Σ coefs.(i) ·
    vars.(i) + const ≤ 0], and the opposite orientation [Σ ncoefs.(i)
    · vars.(i) + nconst ≤ 0] — [-e ≤ 0] for [Lin_eq], the integer
    negation [-e + 1 ≤ 0] for [Pred], absent ([ncoefs = [||]]) for
    [Lin_le].  [Mux_w] compiles to the empty row. *)
type row = {
  coefs : int array;
  vars : int array;
  const : int;
  ncoefs : int array;
  nconst : int;
}

(** Watches.  Every clause of length ≥ 2 watches the atoms at its
    positions 0 and 1 (the kernel reorders its private copy of the
    atoms).  Watch slot [2v] lists the clauses watching an atom that a
    lower-bound increase of [v] can falsify ([Neg v], [v ≤ k]); slot
    [2v+1] those watching an atom that an upper-bound decrease can
    falsify ([Pos v], [v ≥ k]); a clause watching two atoms of one slot
    is listed there twice.  An empty slot is one shared empty array;
    a slot grows on its first push.

    Invariant, once propagation has reached its fixpoint: either both
    watches are non-falsified, or the falsified one has an entailed
    partner whose decision level is no higher.  The attach rule
    establishes it — non-falsified atoms first, then the most recently
    falsified ones — and a clause that attaches unit or falsified goes
    on [recheck] for the next propagation. *)
type t = {
  prob : Rtlsat_constr.Problem.t;
  mutable nv : int;
  mutable lb : int array;
  mutable ub : int array;
  mutable init_lb : int array;
  mutable init_ub : int array;
  trail : entry Rtlsat_constr.Vec.t;
  lim : int Rtlsat_constr.Vec.t;            (** decision-level boundaries *)
  qlim : int Rtlsat_constr.Vec.t;
      (** parallel to [lim]: the propagation head when the level was
          opened.  Below the boundary when a split decision was taken
          with the queue pending; backtracking replays from there *)
  mutable lo_last : int array;  (** var → trail index of its newest lower-bound event, -1 *)
  mutable hi_last : int array;  (** var → trail index of its newest upper-bound event, -1 *)
  clauses : clause Rtlsat_constr.Vec.t;
  root_flags : bool Rtlsat_constr.Vec.t;
      (** parallel to [clauses]: [true] for problem ("root") clauses.
          A per-clause flag, not a prefix — in a session, appended
          problem clauses land after learned ones *)
  mutable watches : int array array;        (** watch slot → clause indices *)
  mutable n_watches : int array;            (** watch slot → used length *)
  recheck : int Rtlsat_constr.Vec.t;
      (** clauses attached unit or falsified; the next propagation
          examines them in full *)
  mutable n_root_clauses : int;             (** count of root-flagged clauses *)
  mutable n_prob_clauses : int;
      (** how many of the problem's clauses have been loaded; the sync
          cursor for {!grow} *)
  mutable constrs : constr array;
  mutable rows : row array;                 (** parallel to [constrs] *)
  mutable constr_occs : int list array;     (** var → constraint indices *)
  mutable qhead : int;
  mutable activity : float array;
  mutable var_inc : float;
  heap : Heap.t;
  mutable phase : bool array;
  (* statistics *)
  mutable n_decisions : int;
  mutable n_conflicts : int;
  mutable n_propagations : int;
  mutable n_learned : int;
  mutable n_jconflicts : int;
  mutable n_final_checks : int;
  mutable n_reductions : int;
  (* interval-split decisions *)
  mutable split_streak : int array;
      (** per-variable count of consecutive tiny shaves; plain ints,
          maintained on every word narrowing whether or not
          observability is attached *)
  mutable split_dir : bool array;
      (** direction of the variable's last narrowing: [true] when the
          lower bound crawled up, [false] when the upper bound crawled
          down; the bisection decides the arm that keeps chasing it *)
  split_heap : Heap.t;
      (** activity-ordered candidates whose streak crossed
          {!split_streak_limit}; only populated when [split] is on *)
  mutable split : bool;
      (** master switch, set by the solver from its options; when off
          the kernel behaves exactly as if splits did not exist *)
  mutable n_splits : int;
  (* observability *)
  mutable obs : Rtlsat_obs.Obs.t;
      (** instrumentation handle threaded through every kernel client;
          {!Rtlsat_obs.Obs.disabled} (the default) makes every
          instrumentation site a single load-and-branch *)
}

val split_max_shave : int
(** A narrowing counts toward the streak when it shaves at most this
    many units. *)

val split_streak_limit : int
(** Consecutive tiny shaves before the variable is nominated for
    bisection. *)

val split_min_width : int
(** Narrowings of domains below this width never count toward a
    streak; far below {!Rtlsat_obs.Forensics.stall_min_width} so
    splitting keeps chasing the crawl into small domains. *)

val create : Rtlsat_constr.Problem.t -> t
(** Builds the kernel: attaches the problem's clauses, compiles its
    linear constraints into {!row}s and registers constraint
    occurrence lists.  Nothing is propagated; the first
    [Propagate.run ~full:true] asserts the unit clauses. *)

val grow : t -> unit
(** Absorb variables, clauses and constraints appended to the problem
    since [create] (or the previous [grow]).  Variable numbering is
    append-only, so existing indices, learned clauses, activities,
    watches and compiled rows stay valid; the per-variable arrays
    (watch slots included) reallocate, only the new constraints are
    compiled and only the new clauses attached, as root.  Must be
    called at decision level 0.
    @raise Invalid_argument above level 0. *)

val decision_level : t -> int
val new_level : t -> unit
val backtrack_to : t -> int -> unit

val watch_slot : atom -> int
(** The watch slot an atom is listed under: [2v] for [Neg v] and
    [v ≤ k], [2v+1] for [Pos v] and [v ≥ k]. *)

val push_watch : t -> int -> int -> unit
(** [push_watch s slot ci] lists clause [ci] under [slot]. *)

val entailed : t -> atom -> bool
val falsified : t -> atom -> bool
val bool_value : t -> var -> int
(** -1 unassigned, 0, or 1. *)

val dom : t -> var -> Rtlsat_interval.Interval.t

val assert_atom : t -> atom -> reason -> unit
(** Tighten a bound / assign a Boolean.  No-op when already entailed.
    @raise Conflict when it empties the domain; the conflict contains
    the reason atoms plus the opposing bound atom. *)

val canonical : t -> atom -> atom
(** Bound atoms over Boolean variables become [Pos]/[Neg]. *)

val add_clause : t -> ?root:bool -> clause -> unit
(** Store a private copy of the clause (learned by default;
    [~root:true] for problem clauses, which database reduction never
    drops) and attach its watches.  A clause that is unit or falsified
    under the current bounds is examined by the next
    [Propagate.run]; a caller that needs its consequence right away
    (the asserting literal of a learned clause) asserts it itself. *)

val is_root_clause : t -> int -> bool
(** Whether the clause at this database index is root (problem-level)
    as opposed to learned. *)

val filter_clauses : t -> (int -> clause -> bool) -> unit
(** The one clause-database rebuild: keep, in order, the clauses for
    which [keep index atoms] holds, then clear every watch slot and
    re-attach the kept clauses.  Trail explanations are copied atom
    arrays and never reference clause storage, so dropping clauses is
    sound.
    @raise Invalid_argument above decision level 0. *)

val reduce_clauses : t -> keep_recent:int -> unit
(** Learned-clause database reduction through {!filter_clauses}: drop
    long, old learned clauses, keeping every original clause, every
    short (≤ 4 atoms) learned clause and the [keep_recent] most recent
    ones.
    @raise Invalid_argument above decision level 0. *)

val entailing_entry : t -> atom -> int option
(** Trail index of the event that first entailed the (currently
    entailed) atom; [None] when the initial domain already entails it. *)

val lo_reason_atom : t -> var -> atom
val hi_reason_atom : t -> var -> atom
(** The canonical atom [v ≥ lb v] (resp. [v ≤ ub v]), taken from the
    variable's newest trail event rather than allocated.  Requires the
    bound to be tighter than the initial domain. *)

val bump_var : t -> var -> unit
val decay_activities : t -> unit

val note_shave : t -> var -> shaved:int -> width:int -> unit
(** Feed one word-level narrowing into the split-streak machinery:
    tiny shaves of wide domains extend the streak (nominating the
    variable once it crosses {!split_streak_limit}), anything else
    resets it.  Called from {!assert_atom}; exposed for tests. *)

val pp_atom : t -> Format.formatter -> atom -> unit
val pp_trail : t -> Format.formatter -> unit -> unit
