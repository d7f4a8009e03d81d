(** The JSON serializers of every machine-readable result this repo
    emits — [rtlsat solve --stats-json], [rtlsat table1/table2 --json]
    and the bench harness's [BENCH_<timestamp>.json] perf-trajectory
    artifact all go through them.  The schema is
    documented in docs/OBSERVABILITY.md; bump the ["schema"] tags when
    changing shapes. *)

module Json = Rtlsat_obs.Json

val stats_json : Rtlsat_core.Solver.stats -> Json.t
(** Every §5 counter: decisions, conflicts, propagations, learned,
    jconflicts, final_checks, splits, relations, learn_time_s,
    solve_time_s. *)

val solve_json : instance:string -> bound:int -> Engine.id -> Engine.run -> Json.t
(** Top-level object of [rtlsat solve --stats-json]
    (schema ["rtlsat.solve/1"]): the engine, verdict, time_s,
    decisions, conflicts, relations, learn_time_s, plus
    [abort_reason]/[stats]/[metrics] when present; carries the
    {!Rtlsat_obs.Env} fingerprint under ["env"]. *)

val bench_schema : string
(** ["rtlsat.bench/2"]. *)

val row_json : Tables.row -> Json.t
(** One bench cell: [section], [instance], [arm], the run's fields as
    in {!solve_json} (without [engine]) and the row's extras. *)

val bench_json : scale:string -> Tables.row list -> Json.t
(** The bench artifact (schema {!bench_schema}): [{schema,
    generated_at, scale, env, rows}], one {!row_json} per row;
    [generated_at] is the current local time
    (["YYYY-MM-DDTHH:MM:SS"]).  Carries the {!Rtlsat_obs.Env}
    fingerprint under ["env"], so every committed baseline is
    self-describing. *)

(* ---- bench-diff ---- *)

type bench_row = {
  br_section : string;   (** e.g. ["table2"] *)
  br_instance : string;
  br_arm : string;
  br_verdict : string;
  br_time : float;
}

val bench_rows : Json.t -> bench_row list
(** The [rows] of a parsed {!bench_schema} artifact, in order.
    @raise Invalid_argument on a wrong or missing schema tag (the
    message names {!bench_schema}), a missing [rows] array, or a row
    without [section], [instance], [arm], [verdict] or [time_s]. *)

type diff_status = Regression | Improvement | Unchanged

type diff_entry = {
  de_section : string;
  de_instance : string;
  de_arm : string;
  de_old_verdict : string;
  de_new_verdict : string;
  de_old_time : float;
  de_new_time : float;
  de_status : diff_status;
  de_note : string;  (** human-readable reason; empty when unchanged *)
}

type bench_diff = {
  bd_entries : diff_entry list;
      (** matched keys, in the new artifact's order *)
  bd_only_old : (string * string * string) list;
  bd_only_new : (string * string * string) list;
  bd_regressions : int;
}

val diff_rows :
  ?threshold:float ->
  ?min_time:float ->
  bench_row list ->
  bench_row list ->
  bench_diff
(** Compare old vs new rows keyed by (section, instance, arm).
    A matched pair regresses when the verdict degrades (solved →
    timeout/abort, or a sat/unsat flip) or when, at equal verdicts,
    [new_time > max (old_time * (1 + threshold)) (old_time +
    min_time)] — the absolute floor [min_time] (default 0.05 s) keeps
    micro-instance jitter from flagging.  Default [threshold] 0.20. *)

val bench_diff : ?threshold:float -> ?min_time:float -> Json.t -> Json.t -> bench_diff
(** [bench_diff old new] over whole parsed artifacts. *)

val print_bench_diff : Format.formatter -> bench_diff -> unit
(** The [rtlsat bench-diff] report: regressions first, then
    improvements, unmatched keys, and a one-line summary. *)

(* ---- bench-history ---- *)

(** One (artifact, section) aggregate in a perf trajectory: how many
    (instance, arm) runs the section carried and how they went. *)
type history_point = {
  hp_label : string;         (** artifact label, e.g. the file basename *)
  hp_generated_at : string;  (** empty when the artifact carries none *)
  hp_section : string;
  hp_runs : int;
  hp_solved : int;           (** sat or unsat verdicts *)
  hp_timeouts : int;
  hp_aborts : int;           (** anything neither solved nor timeout *)
  hp_total_time : float;
}

val bench_history : (string * Json.t) list -> history_point list
(** Aggregate labelled {!bench_schema} artifacts (oldest first) into
    one point per (artifact, section), preserving artifact order so
    each section reads as a time series.  @raise Invalid_argument when
    an artifact has a wrong or missing schema tag. *)

val bench_history_json : history_point list -> Json.t
(** Schema ["rtlsat.bench_history/1"]: [{"sections": {name: [point,
    …]}}] with points in artifact order. *)

val print_bench_history : Format.formatter -> history_point list -> unit
(** The [rtlsat bench-history] table: per section, one row per
    artifact with runs/solved/timeout/abort counts and total time. *)

val fuzz_json :
  seed:int ->
  count:int ->
  instances:int ->
  sat:int ->
  unsat:int ->
  timeouts:int ->
  wall_s:float ->
  failures:Json.t list ->
  metrics:Rtlsat_obs.Obs.snapshot option ->
  Json.t
(** Campaign summary of [rtlsat fuzz --json] (schema
    ["rtlsat.fuzz/1"]).  [failures] are pre-serialized failure objects
    (the fuzz library builds them — the dependency points that way);
    the ["failures"] field is their count, the cases live under
    ["failure_cases"]. *)
