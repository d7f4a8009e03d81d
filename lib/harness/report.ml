module Json = Rtlsat_obs.Json
module Obs = Rtlsat_obs.Obs
module Solver = Rtlsat_core.Solver

let stats_json (st : Solver.stats) =
  Json.Obj
    [
      ("decisions", Json.Int st.Solver.decisions);
      ("conflicts", Json.Int st.Solver.conflicts);
      ("propagations", Json.Int st.Solver.propagations);
      ("learned", Json.Int st.Solver.learned);
      ("jconflicts", Json.Int st.Solver.jconflicts);
      ("final_checks", Json.Int st.Solver.final_checks);
      ("splits", Json.Int st.Solver.splits);
      ("relations", Json.Int st.Solver.relations);
      ("learn_time_s", Json.Float st.Solver.learn_time);
      ("solve_time_s", Json.Float st.Solver.solve_time);
    ]

(* a run's own fields; [solve_json] and [row_json] wrap them *)
let run_fields ?(extra = []) (r : Engine.run) =
  let base =
    [
      ("verdict", Json.Str (Engine.verdict_string r.Engine.verdict));
      ("time_s", Json.Float r.Engine.time);
      ("decisions", Json.Int r.Engine.decisions);
      ("conflicts", Json.Int r.Engine.conflicts);
      ("relations", Json.Int r.Engine.relations);
      ("learn_time_s", Json.Float r.Engine.learn_time);
    ]
  in
  let abort =
    match r.Engine.verdict with
    | Engine.Abort msg -> [ ("abort_reason", Json.Str msg) ]
    | _ -> []
  in
  let stats =
    match r.Engine.stats with
    | Some st -> [ ("stats", stats_json st) ]
    | None -> []
  in
  let metrics =
    match r.Engine.metrics with
    | Some m -> [ ("metrics", Obs.snapshot_json m) ]
    | None -> []
  in
  base @ abort @ extra @ stats @ metrics

let solve_json ~instance ~bound engine r =
  Json.Obj
    (("schema", Json.Str "rtlsat.solve/1")
     :: ("instance", Json.Str instance)
     :: ("bound", Json.Int bound)
     :: ("env", Rtlsat_obs.Env.fingerprint_json ())
     :: ("engine", Json.Str (Engine.name_of engine))
     :: run_fields r)

let bench_schema = "rtlsat.bench/2"

let row_json (r : Tables.row) =
  Json.Obj
    (("section", Json.Str r.Tables.section)
     :: ("instance", Json.Str r.Tables.instance)
     :: ("arm", Json.Str r.Tables.arm)
     :: run_fields ~extra:r.Tables.extra r.Tables.run)

let bench_json ~scale rows =
  let tm = Unix.localtime (Unix.gettimeofday ()) in
  let generated_at =
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  Json.Obj
    [
      ("schema", Json.Str bench_schema);
      ("generated_at", Json.Str generated_at);
      ("scale", Json.Str scale);
      ("env", Rtlsat_obs.Env.fingerprint_json ());
      ("rows", Json.Arr (List.map row_json rows));
    ]

(* ---- bench-diff: per-cell comparison of two rtlsat.bench/2
   artifacts (the [rtlsat bench-diff] subcommand) ---- *)

type bench_row = {
  br_section : string;
  br_instance : string;
  br_arm : string;
  br_verdict : string;
  br_time : float;
}

let bench_rows j =
  let str name j = Option.bind (Json.member name j) Json.get_string in
  let schema = str "schema" j in
  if schema <> Some bench_schema then
    invalid_arg
      (Printf.sprintf "expected schema %s, got %s" bench_schema
         (Option.value schema ~default:"<none>"));
  let rows =
    match Option.bind (Json.member "rows" j) Json.get_list with
    | Some rows -> rows
    | None -> invalid_arg (bench_schema ^ " artifact without a rows array")
  in
  List.mapi
    (fun i row ->
       let field name get =
         match Option.bind (Json.member name row) get with
         | Some v -> v
         | None -> invalid_arg (Printf.sprintf "row %d: missing %S" i name)
       in
       {
         br_section = field "section" Json.get_string;
         br_instance = field "instance" Json.get_string;
         br_arm = field "arm" Json.get_string;
         br_verdict = field "verdict" Json.get_string;
         br_time = field "time_s" Json.get_float;
       })
    rows

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
  de_note : string;
}

type bench_diff = {
  bd_entries : diff_entry list;  (** instance order of the new artifact *)
  bd_only_old : (string * string * string) list;
  bd_only_new : (string * string * string) list;
  bd_regressions : int;
}

let solved = function "sat" | "unsat" -> true | _ -> false

let diff_rows ?(threshold = 0.20) ?(min_time = 0.05) old_rows new_rows =
  let key r = (r.br_section, r.br_instance, r.br_arm) in
  let old_tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace old_tbl (key r) r) old_rows;
  let matched = Hashtbl.create 64 in
  let entries =
    List.filter_map
      (fun n ->
         match Hashtbl.find_opt old_tbl (key n) with
         | None -> None
         | Some o ->
           Hashtbl.replace matched (key n) ();
           let status, note =
             if o.br_verdict <> n.br_verdict then begin
               if solved o.br_verdict && not (solved n.br_verdict) then
                 ( Regression,
                   Printf.sprintf "verdict degraded: %s -> %s" o.br_verdict
                     n.br_verdict )
               else if solved o.br_verdict && solved n.br_verdict then
                 (* sat <-> unsat is a correctness alarm, not a slowdown *)
                 ( Regression,
                   Printf.sprintf "VERDICT FLIP: %s -> %s" o.br_verdict
                     n.br_verdict )
               else
                 ( Improvement,
                   Printf.sprintf "now solved: %s -> %s" o.br_verdict
                     n.br_verdict )
             end
             else begin
               (* same verdict: a slowdown only counts when it clears
                  both the relative threshold and the absolute noise
                  floor [min_time] *)
               let limit =
                 max (o.br_time *. (1.0 +. threshold)) (o.br_time +. min_time)
               in
               if n.br_time > limit then
                 ( Regression,
                   Printf.sprintf "%.3fs -> %.3fs (+%.0f%%)" o.br_time
                     n.br_time
                     ((n.br_time -. o.br_time) /. (max o.br_time 1e-9) *. 100.) )
               else if
                 o.br_time > n.br_time *. (1.0 +. threshold)
                 && o.br_time > n.br_time +. min_time
               then
                 ( Improvement,
                   Printf.sprintf "%.3fs -> %.3fs" o.br_time n.br_time )
               else (Unchanged, "")
             end
           in
           Some
             {
               de_section = n.br_section;
               de_instance = n.br_instance;
               de_arm = n.br_arm;
               de_old_verdict = o.br_verdict;
               de_new_verdict = n.br_verdict;
               de_old_time = o.br_time;
               de_new_time = n.br_time;
               de_status = status;
               de_note = note;
             })
      new_rows
  in
  let only_new =
    List.filter_map
      (fun n -> if Hashtbl.mem old_tbl (key n) then None else Some (key n))
      new_rows
  in
  let only_old =
    List.filter_map
      (fun o -> if Hashtbl.mem matched (key o) then None else Some (key o))
      old_rows
  in
  {
    bd_entries = entries;
    bd_only_old = only_old;
    bd_only_new = only_new;
    bd_regressions =
      List.length (List.filter (fun e -> e.de_status = Regression) entries);
  }

let bench_diff ?threshold ?min_time old_json new_json =
  diff_rows ?threshold ?min_time (bench_rows old_json) (bench_rows new_json)

let print_bench_diff fmt d =
  let pp_key fmt (s, i, e) = Format.fprintf fmt "%s/%s [%s]" s i e in
  let by_status st =
    List.filter (fun e -> e.de_status = st) d.bd_entries
  in
  let section title entries =
    if entries <> [] then begin
      Format.fprintf fmt "%s:@." title;
      List.iter
        (fun e ->
           Format.fprintf fmt "  %a  %s@." pp_key
             (e.de_section, e.de_instance, e.de_arm)
             e.de_note)
        entries
    end
  in
  section "REGRESSIONS" (by_status Regression);
  section "improvements" (by_status Improvement);
  if d.bd_only_old <> [] then begin
    Format.fprintf fmt "only in OLD:@.";
    List.iter (fun k -> Format.fprintf fmt "  %a@." pp_key k) d.bd_only_old
  end;
  if d.bd_only_new <> [] then begin
    Format.fprintf fmt "only in NEW:@.";
    List.iter (fun k -> Format.fprintf fmt "  %a@." pp_key k) d.bd_only_new
  end;
  Format.fprintf fmt
    "%d instances compared: %d regression%s, %d improvement%s, %d unchanged@."
    (List.length d.bd_entries) d.bd_regressions
    (if d.bd_regressions = 1 then "" else "s")
    (List.length (by_status Improvement))
    (if List.length (by_status Improvement) = 1 then "" else "s")
    (List.length (by_status Unchanged))

(* ---- bench-history ---- *)

type history_point = {
  hp_label : string;
  hp_generated_at : string;
  hp_section : string;
  hp_runs : int;
  hp_solved : int;
  hp_timeouts : int;
  hp_aborts : int;
  hp_total_time : float;
}

let bench_history artifacts =
  List.concat_map
    (fun (label, j) ->
       let generated_at =
         match Option.bind (Json.member "generated_at" j) Json.get_string with
         | Some s -> s
         | None -> ""
       in
       let rows = bench_rows j in
       let sections =
         List.fold_left
           (fun acc r ->
              if List.mem r.br_section acc then acc else r.br_section :: acc)
           [] rows
         |> List.rev
       in
       List.map
         (fun section ->
            let rs = List.filter (fun r -> r.br_section = section) rows in
            let count p = List.length (List.filter p rs) in
            {
              hp_label = label;
              hp_generated_at = generated_at;
              hp_section = section;
              hp_runs = List.length rs;
              hp_solved = count (fun r -> solved r.br_verdict);
              hp_timeouts = count (fun r -> r.br_verdict = "timeout");
              hp_aborts =
                count (fun r ->
                    (not (solved r.br_verdict)) && r.br_verdict <> "timeout");
              hp_total_time =
                List.fold_left (fun t r -> t +. r.br_time) 0.0 rs;
            })
         sections)
    artifacts

let history_point_json p =
  Json.Obj
    [
      ("label", Json.Str p.hp_label);
      ("generated_at", Json.Str p.hp_generated_at);
      ("runs", Json.Int p.hp_runs);
      ("solved", Json.Int p.hp_solved);
      ("timeouts", Json.Int p.hp_timeouts);
      ("aborts", Json.Int p.hp_aborts);
      ("total_time_s", Json.Float p.hp_total_time);
    ]

let history_sections points =
  List.fold_left
    (fun acc p ->
       if List.mem p.hp_section acc then acc else p.hp_section :: acc)
    [] points
  |> List.rev

let bench_history_json points =
  Json.Obj
    [
      ("schema", Json.Str "rtlsat.bench_history/1");
      ( "sections",
        Json.Obj
          (List.map
             (fun section ->
                ( section,
                  Json.Arr
                    (List.filter_map
                       (fun p ->
                          if p.hp_section = section then
                            Some (history_point_json p)
                          else None)
                       points) ))
             (history_sections points)) );
    ]

let print_bench_history fmt points =
  let width =
    List.fold_left (fun w p -> max w (String.length p.hp_label)) 8 points
  in
  List.iter
    (fun section ->
       let ps = List.filter (fun p -> p.hp_section = section) points in
       Format.fprintf fmt "%s:@." section;
       Format.fprintf fmt "  %-*s  %5s  %6s  %7s  %6s  %9s@." width "artifact"
         "runs" "solved" "timeout" "abort" "total_s";
       List.iter
         (fun p ->
            Format.fprintf fmt "  %-*s  %5d  %6d  %7d  %6d  %9.3f@." width
              p.hp_label p.hp_runs p.hp_solved p.hp_timeouts p.hp_aborts
              p.hp_total_time)
         ps)
    (history_sections points)

let fuzz_json ~seed ~count ~instances ~sat ~unsat ~timeouts ~wall_s ~failures
    ~metrics =
  let metrics =
    match metrics with
    | Some m -> [ ("metrics", Obs.snapshot_json m) ]
    | None -> []
  in
  Json.Obj
    ([
       ("schema", Json.Str "rtlsat.fuzz/1");
       ("seed", Json.Int seed);
       ("count", Json.Int count);
       ("instances", Json.Int instances);
       ("sat", Json.Int sat);
       ("unsat", Json.Int unsat);
       ("timeouts", Json.Int timeouts);
       ("failures", Json.Int (List.length failures));
       ("failure_cases", Json.Arr failures);
       ("wall_s", Json.Float wall_s);
     ]
     @ metrics)
