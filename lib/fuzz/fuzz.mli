(** Differential fuzzing campaign driver.

    Each iteration draws a fresh case from {!Gen.circuit} (instance
    seed = campaign seed + index, so any failure is replayable on its
    own with [--count 1]), cross-checks it with {!Oracle.check}, and on
    failure minimizes it with {!Shrink.shrink} before recording it —
    the recorded circuit text is ready to drop into [test/corpus/].

    Obs counters (on the handle in the config, when enabled):
    [fuzz.instances], [fuzz.sat], [fuzz.unsat], [fuzz.timeouts],
    [fuzz.discrepancies], [fuzz.shrink_steps]. *)

module Obs = Rtlsat_obs.Obs
module Json = Rtlsat_obs.Json
module Engine = Rtlsat_harness.Engine

type config = {
  seed : int;
  count : int;                  (** instances to attempt *)
  gen : Gen.cfg;
  engines : Engine.id list;
  req : Rtlsat_harness.Req.t;
      (** request context of every engine run — its [timeout] bounds
          each run, its [simplify]/[inprocess] select pre/inprocessing
          inside every engine, see {!Oracle.check} *)
  deadline : float;             (** campaign wall-clock budget, seconds *)
  cert_budget : int;            (** Unsat certificate matrices, see {!Oracle.check} *)
  shrink_steps : int;           (** oracle evaluations per shrink *)
  obs : Obs.t;
      (** campaign-level telemetry (fuzz.* counters, progress events);
          distinct from [req.obs], which would instrument the
          individual engine runs *)
  log : (int -> Case.t -> Oracle.outcome -> unit) option;
      (** per-instance progress callback (index, case, outcome) *)
}

val default : config
(** seed 0, count 100, {!Gen.default}, all six engines, 2s/run (a
    fuzz campaign favors instance throughput over engine
    completeness; timeouts never count as disagreement), no deadline,
    cert budget 4096, 128 shrink steps, disabled obs. *)

type failure = {
  f_index : int;                (** campaign index of the instance *)
  f_seed : int;                 (** generator seed (replayable alone) *)
  f_case : Case.t;              (** the {e shrunk} case *)
  f_outcome : Oracle.outcome;   (** oracle outcome on the shrunk case *)
  f_steps : int;                (** shrink oracle evaluations spent *)
}

type summary = {
  instances : int;              (** actually run (≤ count under a deadline) *)
  sat : int;
  unsat : int;
  timeouts : int;               (** instances where no engine answered *)
  wall : float;
  failures : failure list;
  stopped_early : bool;         (** deadline hit before [count] *)
}

val instance_seed : config -> int -> int
(** The generator seed of campaign instance [i]. *)

val run : config -> summary

val failure_reason : Oracle.outcome -> string
(** ["disagreement"], ["witness-rejected:<engine>"], ["unsat-refuted"]
    or ["none"]. *)

val failure_json : failure -> Json.t
val summary_json : config -> summary -> Json.t
(** Schema ["rtlsat.fuzz/1"] via {!Rtlsat_harness.Report.fuzz_json};
    includes the obs snapshot when the config's handle is enabled. *)
