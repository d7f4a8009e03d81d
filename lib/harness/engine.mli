(** First-class engine modules.

    Every satisfiability engine of the evaluation — the four HDPLL
    configurations, the eager bit-blast translation and the lazy CDP
    baseline — implements one module type {!S} with explicit
    {!caps} capability declarations and a uniform
    [create / session / solve / sweep_step / cancel / snapshot]
    surface.  Callers dispatch through {!of_id} (or iterate {!all})
    instead of pattern-matching the engine variant, and thread one
    {!Req.t} request context instead of a pile of optional arguments.

    The split between [create]+[solve] (one-shot) and
    [session]+[sweep_step] (incremental) is semantic, not cosmetic:
    a one-shot context asserts the violation selector as a unit clause
    and may run destructive preprocessing (variable elimination on the
    bit-blast CNF); an incremental context keeps the encoding growable
    and poses each bound's selector as an assumption, so carried
    learned clauses and the unroll prefix survive across calls — the
    seam the [rtlsat serve] daemon keeps warm. *)

type id = Hdpll | Hdpll_s | Hdpll_sp | Hdpll_p | Bitblast | Lazy_cdp

val name_of : id -> string
(** ["hdpll"], ["hdpll+s"], ["hdpll+s+p"], ["hdpll+p"], ["bitblast"],
    ["lazy-cdp"]. *)

val of_name : string -> id option
(** Inverse of {!name_of}. *)

val all_ids : id list
(** All six engines, in Table 2 column order then the ±P variant. *)

val table2_engines : id list
(** The five columns of Table 2, in order. *)

type verdict =
  | Sat
  | Unsat
  | Timeout
  | Abort of string
      (** engine failure — e.g. a witness that does not replay *)

val verdict_symbol : verdict -> string
(** ["S"], ["U"], ["-to-"], ["-A-"] as in the paper's tables. *)

val verdict_string : verdict -> string
(** ["sat"], ["unsat"], ["timeout"], ["abort"], as in every JSON
    report. *)

type run = {
  verdict : verdict;
  time : float;           (** seconds, encode included *)
  relations : int;        (** predicate relations learned (HDPLL+P) *)
  learn_time : float;
  decisions : int;
  conflicts : int;
  stats : Rtlsat_core.Solver.stats option;
      (** full solver counters; [None] for the baseline engines *)
  metrics : Rtlsat_obs.Obs.snapshot option;
      (** observability snapshot; [None] unless the request carried an
          enabled [obs] handle *)
}

type sweep_step = {
  sw_bound : int;
  sw_run : run;
  sw_carried_clauses : int;
      (** learned clauses already in the solver when this bound's call
          began.  Per-engine semantics: HDPLL engines report the
          session kernel's learned-clause database size at call entry;
          the bit-blast baseline reports the CDCL kernel's total
          conflict-learned lemmas so far ({!Rtlsat_sat.Cdcl.n_learned}
          — derivation count, monotone across inprocessing rebuilds);
          the lazy CDP re-solves from scratch and always reports 0 *)
  sw_carried_relations : int;
      (** predicate relations carried from earlier bounds (HDPLL+P) *)
}

(** What an engine module actually supports.  Declared statically and
    checked against behaviour by [test/test_engine.ml]. *)
type caps = {
  supports_sessions : bool;
      (** [session] keeps solver state warm across [sweep_step] calls
          (learned clauses / activities survive); engines without it
          still expose the uniform surface but re-solve from scratch *)
  supports_assumptions : bool;
      (** per-call queries are posed as assumption literals (MiniSat
          style) rather than baked into the formula *)
  exports_learned_clauses : bool;
      (** honors [Req.on_learn]: short conflict clauses are exported
          for cross-worker exchange *)
  honors_simplify : bool;
      (** [Req.simplify] / [Req.inprocess] select a real
          pre/inprocessing pipeline *)
  honors_split : bool;
      (** [Req.split] toggles interval-split decisions *)
}

val caps_of : id -> caps

(** {1 The hybrid engines' solver options} *)

val is_hybrid : id -> bool
(** The four HDPLL configurations; [false] for the bit-blast and lazy
    CDP baselines, which have no interval split heap. *)

val hybrid_options :
  id -> Req.t -> deadline:float -> Rtlsat_core.Solver.options
(** The HDPLL configuration of [id] with the request's solver knobs
    ([obs], [cancel], [split], [simplify], [inprocess],
    [learn_threshold], [on_learn], [dump_graph_max]) and the absolute
    [deadline].  [dump_graph] stays off: only one-shot [solve] sets it.
    @raise Invalid_argument unless [is_hybrid id]. *)

val hybrid_verdict :
  Rtlsat_bmc.Bmc.instance ->
  Rtlsat_constr.Encode.t ->
  Rtlsat_core.Solver.result ->
  verdict
(** A hybrid solver result as a verdict: a model is replayed through
    the RTL simulator ({!Rtlsat_bmc.Bmc.witness_ok}) and becomes [Sat]
    only if the witness replays, [Abort "witness failed replay"]
    otherwise. *)

(** The uniform engine surface.

    Contexts come in two modes.  [create] builds a {e one-shot}
    context over a pre-unrolled BMC instance (violation asserted as a
    unit clause; destructive preprocessing allowed); decide it with
    [solve].  [session] builds a {e warm incremental} context over a
    frame-incremental unroll; decide one bound at a time with
    [sweep_step].  Calling [solve] on an incremental context or
    [sweep_step] on a one-shot one raises [Invalid_argument].

    Request threading: identity and policy — [obs], [cancel], solver
    knobs ([split]/[simplify]/[inprocess]/[learn_threshold]/
    [on_learn]) — are taken from the {e creation} request and fixed
    for the context's lifetime (an incremental session bakes them into
    its kernel).  Budget — [timeout]/[deadline] — is taken from the
    request passed to each [solve]/[sweep_step] call, so a daemon can
    give every request its own deadline over one warm session. *)
module type S = sig
  val id : id
  val name : string
  val caps : caps

  type session

  val create : req:Req.t -> Rtlsat_bmc.Bmc.instance -> session
  (** One-shot context: encode the instance (under [req.obs]'s Encode
      span) and assert the violation selector as a unit clause. *)

  val session :
    req:Req.t ->
    ?semantics:Rtlsat_bmc.Bmc.semantics ->
    Rtlsat_rtl.Ir.circuit ->
    prop:Rtlsat_rtl.Ir.node ->
    session
  (** Warm incremental context: the circuit is unrolled
      frame-incrementally ({!Rtlsat_bmc.Bmc.sweep}) and the underlying
      solver persists across [sweep_step] calls. *)

  val solve : req:Req.t -> session -> run
  (** Decide a [create] context.  The effective deadline is
      {!Req.deadline_from} of the context's creation instant, so the
      budget covers encoding too (as it always has). *)

  val sweep_step : req:Req.t -> session -> bound:int -> sweep_step
  (** Decide one bound of a [session] context: extend the unroll to
      [bound], pose the bound's violation selector (as an assumption
      where [caps.supports_assumptions]) and solve within
      {!Req.deadline_from} of this call's start. *)

  val cancel : session -> unit
  (** Set the context's cooperative-cancel flag (the creation
      request's [cancel]); any in-flight or future call on this
      context returns [Timeout] at its next step gate. *)

  val snapshot : session -> Rtlsat_obs.Obs.snapshot option
  (** Current observability snapshot of the creation request's handle;
      [None] when it is disabled. *)
end

val of_id : id -> (module S)
val all : (module S) list
(** One module per engine, in {!all_ids} order. *)

(** {1 Drivers}

    Every satisfiable answer is validated by replaying the witness
    through the RTL simulator ({!Rtlsat_bmc.Bmc.witness_ok}); a
    witness that does not replay becomes [Abort]. *)

val run_instance : ?req:Req.t -> id -> Rtlsat_bmc.Bmc.instance -> run
(** [create] + [solve] of the engine's module under the request
    context [req] (default {!Req.default}: 1200 s budget — the paper's
    limit — observability disabled, simplify and split on).
    [req.obs] instruments the whole run — encoding included — and
    fills [run.metrics]; pass a fresh handle per run for per-run
    snapshots.  The remaining knobs are documented on {!Req.t} and
    {!caps}: [dump_graph], [split] and [on_learn] only reach the
    HDPLL engines, [simplify]/[inprocess] select each engine's
    pre/inprocessing pipeline (the lazy CDP ignores them), and
    [cancel] makes the engine return [Timeout] at its next step
    gate. *)

val run_sweep :
  ?req:Req.t ->
  ?semantics:Rtlsat_bmc.Bmc.semantics ->
  id ->
  Rtlsat_rtl.Ir.circuit ->
  prop:Rtlsat_rtl.Ir.node ->
  bounds:int list ->
  sweep_step list
(** Sweep a list of bounds through {e one} [session] of the engine:
    the unroll grows frame-incrementally, each bound's violation
    selector is posed as an assumption where
    [caps.supports_assumptions], and learned clauses, predicate
    relations and heuristic state survive from bound to bound where
    [caps.supports_sessions] (the lazy CDP re-solves each bound from
    scratch with zero carried counters).  [req.timeout] is a
    per-bound budget.  The bit-blast baseline keeps variable
    elimination off here: the encoding grows and literals are assumed
    per bound, which elimination does not survive. *)

val sweep_with_obs :
  Rtlsat_obs.Obs.t ->
  total:int ->
  index:int ->
  bound:int ->
  (unit -> sweep_step) ->
  sweep_step
(** Per-bound sweep telemetry wrapper: points the heartbeat context at
    the current bound and brackets the step with [sweep.bound] /
    [sweep.result] trace events, so a live monitor can tell which
    bound a long sweep is stuck on.  Used by {!run_sweep} and the
    parallel bound-partitioned sweep driver. *)

val op_counts : Rtlsat_bmc.Bmc.instance -> int * int
(** (arith, bool) operator counts of the unrolled instance —
    columns 3–4 of Table 2. *)
