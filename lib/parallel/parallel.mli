(** Multicore solving over OCaml domains: engine-portfolio racing,
    cube-and-conquer for hard instances, and bound-parallel sweeps.

    All cancellation is cooperative — one shared [bool Atomic.t] per
    race, set by the first decisive finisher and polled by every
    engine at its existing step/fuel gates — so worker solver state is
    never interrupted asynchronously.  Each domain carries its own
    {!Rtlsat_obs.Obs.t} handle tagged with its worker id (trace/8
    ["worker"] field); counters are merged at join with
    {!Rtlsat_obs.Obs.merge_snapshots}. *)

module Exchange = Exchange

(** {1 The race primitive} *)

type 'a race_result = {
  winner : int option;
      (** index of the first worker whose result satisfied [decisive];
          [None] when no result did *)
  entries : 'a option array;
      (** every worker's result; [None] where the worker raised *)
  wall : float;  (** seconds from first spawn to last join *)
}

val race :
  decisive:('a -> bool) ->
  (worker:int -> cancel:bool Atomic.t -> 'a) array ->
  'a race_result
(** Run one domain per thunk; the first result satisfying [decisive]
    sets the shared [cancel] flag (CAS-elected winner), after which
    cooperative engines return promptly with their own (non-decisive)
    results.  Joins all domains before returning.  Exposed for the
    deterministic fast/slow portfolio test.
    @raise Invalid_argument on an empty array. *)

(** {1 Engine portfolio} *)

val portfolio_lineup :
  Rtlsat_harness.Engine.id -> int -> Rtlsat_harness.Engine.id list
(** The engines a [-j j] portfolio races: the requested engine first,
    then the remaining engines in default order, capped at [j] (and at
    the total engine count, 6). *)

type portfolio_result = {
  p_winner : Rtlsat_harness.Engine.id option;
      (** engine whose decisive verdict won; [None] if all timed out *)
  p_run : Rtlsat_harness.Engine.run;
      (** the winning run, or the requested engine's run when nobody
          decided *)
  p_runs :
    (Rtlsat_harness.Engine.id * Rtlsat_harness.Engine.run option) list;
      (** every contestant's run ([None] where the worker raised);
          losers report [Timeout] via cancellation *)
  p_wall : float;  (** wall clock of the whole race *)
  p_metrics : Rtlsat_obs.Obs.snapshot;
      (** all workers' observability counters, merged *)
}

val portfolio :
  ?req:Rtlsat_harness.Req.t ->
  j:int ->
  engine:Rtlsat_harness.Engine.id ->
  Rtlsat_bmc.Bmc.instance ->
  portfolio_result
(** Race up to [j] engines on one shared (pre-unrolled) instance;
    first Sat/Unsat wins and cancels the rest.  The instance and its
    source circuit are only read by the workers — each engine builds
    its own encoding.  [req] (default {!Rtlsat_harness.Req.default})
    carries the budget and per-engine knobs as in
    {!Rtlsat_harness.Engine.run_instance}; each worker runs under a
    derived request whose [obs] is a fresh handle sharing [req.obs]'s
    trace/recorder sinks (which are internally locked), tagged with
    its worker id, and whose [cancel] is the race's shared flag
    ([req.cancel] is left untouched). *)

(** {1 Cube-and-conquer} *)

type cube_result = {
  c_verdict : Rtlsat_harness.Engine.verdict;
  c_time : float;
  c_cubes : int;       (** 0 when the probe or fallback decided alone *)
  c_refuted : int;     (** cubes proved Unsat *)
  c_vars : int list;   (** cube variables, best first *)
  c_exchange_pushed : int;  (** clauses offered to the exchange *)
  c_exchange_taken : int;   (** clauses imported by some worker *)
  c_probe_time : float;
  c_metrics : Rtlsat_obs.Obs.snapshot;
      (** probe + all workers, merged *)
}

val cube_solve :
  ?req:Rtlsat_harness.Req.t ->
  ?probe_budget:float ->
  j:int ->
  engine:Rtlsat_harness.Engine.id ->
  Rtlsat_bmc.Bmc.instance ->
  cube_result
(** Cube-and-conquer a hard instance with a hybrid engine:

    - a short main-domain probe ([probe_budget] seconds, default 2)
      either decides the instance or warms activities and the interval
      split heap;
    - {!Rtlsat_core.Solver.Session.split_candidates} nominates cube
      variables; midpoint bisection over [k] of them yields [2^k ≥
      max 4 (2j)] cubes covering the root box exactly, so all-refuted
      is a sound [Unsat] and any replay-validated model is [Sat];
    - up to [j] domains drain the cube array through an atomic
      counter, each with its own encoding and session, posing cubes as
      assumption lists;
    - learned clauses of length 1 (any atom) and length 2 (Boolean
      literals only) are shared through a bounded lossy lock-free
      {!Exchange} and imported by other workers before each cube.
      Learned clauses never resolve away assumptions, so every shared
      lemma is valid for the whole problem, not just its cube.

    When the probe finds no splittable word interval, falls back to
    finishing the probe session sequentially under the full deadline.
    @raise Invalid_argument on a non-hybrid engine
    (Bitblast/Lazy_cdp have no split heap to nominate cubes). *)

(** {1 Bound-parallel sweeps} *)

val sweep :
  ?req:Rtlsat_harness.Req.t ->
  ?semantics:Rtlsat_bmc.Bmc.semantics ->
  j:int ->
  Rtlsat_harness.Engine.id ->
  Rtlsat_rtl.Ir.circuit ->
  prop:Rtlsat_rtl.Ir.node ->
  bounds:int list ->
  Rtlsat_harness.Engine.sweep_step list
(** Partition the bound ladder round-robin over [min j #bounds]
    workers, each running its own private
    {!Rtlsat_harness.Engine.run_sweep} (own unroll, own session) on
    its subset; steps are returned in the caller's bound order.  No
    cancellation — every bound reports its own verdict, exactly as
    sequentially.  Verdicts match [-j 1]; per-bound carried-lemma
    counts differ (each session only carries lemmas from its own
    subset).  [j <= 1] degrades to the sequential sweep on the calling
    domain. *)
