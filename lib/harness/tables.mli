(** The bench families: the paper's two evaluation tables and the
    workload families around them.  Every family produces the same
    cell shape — one {!row} per (instance, arm) run — which
    {!Report.row_json} serializes into the [rtlsat.bench/2] artifact.

    [`Scaled] uses reduced bound lists and timeout so the whole suite
    runs in minutes on a laptop; [`Full] uses the paper's exact bounds
    (up to 400 time frames) and its 1200-second timeout. *)

type scale = [ `Scaled | `Full ]

val scale_name : scale -> string
(** ["scaled"] / ["full"], as used in JSON reports. *)

type row = {
  section : string;  (** the family, e.g. ["table2"] *)
  instance : string;  (** e.g. ["b13_1(50)"] *)
  arm : string;
      (** the engine name, suffixed where a family runs one engine
          several ways: ["hdpll/incr"] vs ["hdpll/scratch"] (bmc_sweep),
          ["bitblast/simp"] vs ["bitblast/nosimp"] (simplify) *)
  run : Engine.run;
  extra : (string * Rtlsat_obs.Json.t) list;
      (** the family's own scalars: ["arith_ops"]/["bool_ops"] (table2,
          extension, wide_wrap), ["carried_clauses"]/
          ["carried_relations"] (bmc_sweep incremental arms),
          ["winner"] (parallel portfolio arms) *)
}

type family = string * (?timeout:float -> ?metrics:bool -> scale -> row list)
(** A named family runner.  [timeout] overrides the family's per-run
    budget; [metrics] attaches a fresh observability handle to every
    run, filling [run.metrics] for JSON reports (default false, except
    simplify, whose point is its [simplify.*] counters). *)

val families : family list
(** [table1], [table2], [extension], [wide_wrap], [bmc_sweep] and
    [simplify], in that order.  The bench harness appends [parallel]
    and the [sweep] scaling curve, which need libraries that depend on
    this one. *)

val table1_instances : scale -> (string * string * int) list
(** (circuit, property, bound) triples of Table 1 rows. *)

val table2_instances : scale -> (string * string * int) list

val run_row :
  ?timeout:float ->
  ?metrics:bool ->
  section:string ->
  engines:Engine.id list ->
  string * string * int ->
  row list
(** Run one instance across engines, one row per engine with the
    instance's operator counts as extras. *)

val print : Format.formatter -> row list -> unit
(** Print one family's rows.  [table1], [table2], [extension] and
    [wide_wrap] use the paper's pivot layout — one line per instance,
    one time column per arm, the instance's verdict (its first decided
    arm's) and scalar columns in front; the other families print one
    line per row with their extras as [key=value]. *)
