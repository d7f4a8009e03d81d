(* Benchmark harness: regenerates every table of the paper's
   evaluation and the workload families around it, and runs Bechamel
   micro-benchmarks (one Test.make per table) on representative
   instances.

   Default run: scaled-down bound matrix (minutes on a laptop).
   RTLSAT_FULL=1 or --full switches to the paper's full bounds with
   the 1200 s timeout.

   Usage: main.exe [--full] [--json [--json-file FILE]] [SUBCOMMAND]

   Families — each produces rtlsat.bench/2 rows (see
   docs/OBSERVABILITY.md) and prints them as a table:
     table1            Table 1 (predicate learning)
     table2            Table 2 (structural decisions)
     extension         suite-extension circuits
     wide_wrap         wrap-around corners over wide words (w61 family)
     bmc_sweep         incremental sessions vs from-scratch bound sweeps
     simplify          pre/inprocessing on vs off, per clause database
     parallel          -j 1 vs -j N engine portfolio
     sweep             scaling curve: b13_1(k) per engine
   Other subcommands:
     (none) | all      every family but sweep, then ablation and micro
     micro             Bechamel micro-benchmarks only
     ablation          decision/learning ablation sweep (see below)

   --json writes the rows of table1, table2, wide_wrap, bmc_sweep,
   simplify and parallel, with per-run metrics attached, to a
   BENCH_<timestamp>.json perf-trajectory artifact (any subcommand is
   ignored). *)

module Engine = Rtlsat_harness.Engine
module Req = Rtlsat_harness.Req
module Tables = Rtlsat_harness.Tables
module Report = Rtlsat_harness.Report
module Json = Rtlsat_obs.Json
module Ledger = Rtlsat_obs.Ledger
module Registry = Rtlsat_itc99.Registry
module Bmc = Rtlsat_bmc.Bmc
module Unroll = Rtlsat_bmc.Unroll
module E = Rtlsat_constr.Encode
module Solver = Rtlsat_core.Solver

(* ---- command line (stdlib Arg; previously a raw Sys.argv scan that
   mistook "--full" anywhere — including file names — for the flag) ---- *)

let opt_full = ref (Sys.getenv_opt "RTLSAT_FULL" = Some "1")
let opt_json = ref false
let opt_json_file = ref ""
let opt_ledger = ref ""
let opt_no_ledger = ref false
let subcommand = ref "all"

let spec =
  Arg.align
    [
      ("--full", Arg.Set opt_full,
       " Paper's full bound matrix and 1200 s timeout (also: RTLSAT_FULL=1)");
      ("--json", Arg.Set opt_json,
       " Write a BENCH_<timestamp>.json perf-trajectory artifact");
      ("--json-file", Arg.Set_string opt_json_file,
       "FILE Override the artifact path (default BENCH_<timestamp>.json)");
      ("--ledger", Arg.Set_string opt_ledger,
       "FILE Append the run record to this ledger \
        (default $RTLSAT_LEDGER or .rtlsat/ledger.jsonl)");
      ("--no-ledger", Arg.Set opt_no_ledger,
       " Do not append a rtlsat.run/1 record to the cross-run ledger");
    ]

let scale () : Tables.scale = if !opt_full then `Full else `Scaled

(* ---- bechamel micro-benchmarks ---- *)

let solve_with options (circuit, prop, bound) () =
  let inst = Registry.instance ~circuit ~prop ~bound in
  let enc = E.encode (Unroll.combo inst.Bmc.unrolled) in
  E.assume_bool enc inst.Bmc.violation true;
  ignore (Solver.solve ~options enc)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let t1_instance = ("b13", "1", 20) in
  let t2_instance = ("b13", "2", 20) in
  let tests =
    Test.make_grouped ~name:"tables"
      [
        (* Table 1's comparison: HDPLL with and without predicate learning *)
        Test.make ~name:"table1/hdpll/b13_1(20)"
          (Staged.stage (solve_with Solver.hdpll t1_instance));
        Test.make ~name:"table1/hdpll+p/b13_1(20)"
          (Staged.stage (solve_with Solver.hdpll_p t1_instance));
        (* Table 2's comparison: the structural decision strategy *)
        Test.make ~name:"table2/hdpll/b13_2(20)"
          (Staged.stage (solve_with Solver.hdpll t2_instance));
        Test.make ~name:"table2/hdpll+s/b13_2(20)"
          (Staged.stage (solve_with Solver.hdpll_s t2_instance));
        Test.make ~name:"table2/hdpll+s+p/b13_2(20)"
          (Staged.stage (solve_with Solver.hdpll_sp t2_instance));
      ]
  in
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 2.0) ~kde:(Some 20) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.printf "@.Bechamel micro-benchmarks (monotonic clock per solve):@.";
  let rows =
    Hashtbl.fold (fun name o acc -> (name, o) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (name, o) ->
       match Analyze.OLS.estimates o with
       | Some [ est ] -> Format.printf "  %-32s %10.3f ms/run@." name (est /. 1e6)
       | _ -> Format.printf "  %-32s (no estimate)@." name)
    rows

(* ---- ablation sweep (DESIGN.md extension): the individual value of
   each strategy and the learning threshold ---- *)

let ablation () =
  Format.printf "@.Ablation: decision strategy x predicate learning on b13_2(50)@.";
  let run name options =
    let inst = Registry.instance ~circuit:"b13" ~prop:"2" ~bound:50 in
    let enc = E.encode (Unroll.combo inst.Bmc.unrolled) in
    E.assume_bool enc inst.Bmc.violation true;
    let t0 = Unix.gettimeofday () in
    let { Solver.result; stats; _ } = Solver.solve ~options enc in
    Format.printf "  %-28s %-2s %7.2fs  dec=%-6d cfl=%-6d rels=%d@." name
      (match result with
       | Solver.Sat _ -> "S" | Solver.Unsat -> "U" | Solver.Timeout -> "to")
      (Unix.gettimeofday () -. t0)
      stats.Solver.decisions stats.Solver.conflicts stats.Solver.relations
  in
  run "base (no S, no P)" Solver.hdpll;
  run "+S" Solver.hdpll_s;
  run "+P" Solver.hdpll_p;
  run "+S+P" Solver.hdpll_sp;
  run "+S+P, no restarts" { Solver.hdpll_sp with Solver.restarts = false };
  run "+S+P, no fanout seeding" { Solver.hdpll_sp with Solver.seed_fanout = false };
  Format.printf "@.Learning-threshold sweep (+S+P on b13_1(50)):@.";
  List.iter
    (fun threshold ->
       let inst = Registry.instance ~circuit:"b13" ~prop:"1" ~bound:50 in
       let enc = E.encode (Unroll.combo inst.Bmc.unrolled) in
       E.assume_bool enc inst.Bmc.violation true;
       let options = { Solver.hdpll_sp with Solver.learn_threshold = Some threshold } in
       let t0 = Unix.gettimeofday () in
       let { Solver.result = _; stats; _ } = Solver.solve ~options enc in
       Format.printf "  threshold %-6d -> %7.2fs  rels=%-6d learn=%.2fs@." threshold
         (Unix.gettimeofday () -. t0)
         stats.Solver.relations stats.Solver.learn_time)
    [ 0; 100; 500; 2000; 5000 ]

let row section instance ?(extra = []) arm run =
  { Tables.section; instance; arm; run; extra }

(* scaling curve: solve time vs unrolling bound, one arm per engine *)
let sweep ?(timeout = 120.0) ?metrics:_ _scale =
  List.concat_map
    (fun bound ->
       List.map
         (fun e ->
            row "sweep"
              (Registry.instance_name ~circuit:"b13" ~prop:"1" ~bound)
              (Engine.name_of e)
              (Engine.run_instance ~req:(Req.make ~timeout ()) e
                 (Registry.instance ~circuit:"b13" ~prop:"1" ~bound)))
         [ Engine.Hdpll; Engine.Hdpll_s; Engine.Hdpll_sp; Engine.Bitblast ])
    [ 25; 50; 75; 100; 150; 200 ]

(* ---- parallel family: the requested engine alone vs a -j N
   portfolio race over domains.  Cases are picked where the requested
   engine is hopeless (times out) but another engine in the lineup is
   fast, so even on one core — where the portfolio only time-shares —
   first-finisher-wins cancellation turns a timeout into ≈ N x the
   fastest engine's time.  Both cases race the lazy CDP — the engine
   with the widest gap to the hybrids — on deep unrollings it cannot
   finish: a Sat one (b01_1) and an Unsat one (b04_1), rescued by
   different winners.  On multi-core hardware the race also helps when
   the gap is small; on one core the overhead of racing N allocating
   domains (minor-GC barriers) is far above Nx, so only
   timeout-vs-instant gaps pay — see DESIGN.md.  The portfolio arm's
   time is the wall clock of the whole race. ---- *)

module Parallel = Rtlsat_parallel.Parallel

let parallel_jobs = 4

let parallel ?(timeout = 10.0) ?metrics:_ _scale =
  List.concat_map
    (fun (circuit, prop, bound) ->
       let req = Req.make ~timeout () in
       let row =
         row "parallel" (Registry.instance_name ~circuit ~prop ~bound)
       in
       let seq =
         Engine.run_instance ~req Engine.Lazy_cdp
           (Registry.instance ~circuit ~prop ~bound)
       in
       let p =
         Parallel.portfolio ~req ~j:parallel_jobs ~engine:Engine.Lazy_cdp
           (Registry.instance ~circuit ~prop ~bound)
       in
       let winner =
         match p.Parallel.p_winner with
         | Some w -> Json.Str (Engine.name_of w)
         | None -> Json.Null
       in
       [
         row (Engine.name_of Engine.Lazy_cdp ^ "/j1") seq;
         row
           (Printf.sprintf "portfolio/j%d" parallel_jobs)
           { p.Parallel.p_run with Engine.time = p.Parallel.p_wall }
           ~extra:[ ("winner", winner) ];
       ])
    [ ("b01", "1", 100); ("b04", "1", 300) ]

let families : Tables.family list =
  Tables.families @ [ ("parallel", parallel); ("sweep", sweep) ]

let subcommands = "all" :: "micro" :: "ablation" :: List.map fst families

let usage =
  Printf.sprintf "main.exe [--full] [--json [--json-file FILE]] [%s]"
    (String.concat "|" subcommands)

let anon cmd =
  if List.mem cmd subcommands then subcommand := cmd
  else raise (Arg.Bad (Printf.sprintf "unknown subcommand %S" cmd))

let run_family ?metrics name =
  if not (List.mem name [ "table1"; "table2" ]) then
    Format.printf "@.%s:@." name;
  let rows = (List.assoc name families) ?metrics (scale ()) in
  Tables.print Format.std_formatter rows;
  rows

(* ---- the perf-trajectory artifact: the families' rows with per-run
   metrics, one timestamped JSON file per invocation ---- *)

let artifact_families =
  [ "table1"; "table2"; "wide_wrap"; "bmc_sweep"; "simplify"; "parallel" ]

let bench_artifact () =
  let rows = List.concat_map (run_family ~metrics:true) artifact_families in
  let doc = Report.bench_json ~scale:(Tables.scale_name (scale ())) rows in
  let path =
    if !opt_json_file <> "" then !opt_json_file
    else
      (* generated_at "2026-08-06T10:20:30" -> BENCH_20260806_102030.json *)
      Option.bind (Json.member "generated_at" doc) Json.get_string
      |> Option.get |> String.to_seq
      |> Seq.filter_map (function
        | '-' | ':' -> None
        | 'T' -> Some '_'
        | c -> Some c)
      |> String.of_seq
      |> Printf.sprintf "BENCH_%s.json"
  in
  let oc = open_out path in
  Json.to_channel oc doc;
  output_char oc '\n';
  close_out oc;
  Format.printf "@.perf-trajectory artifact written to %s@." path;
  Format.printf
    "compare against a committed baseline with: rtlsat bench-diff \
     BENCH_<old>.json %s@."
    path;
  path

(* one rtlsat.run/1 record per invocation, same ledger the rtlsat
   subcommands append to — so `rtlsat runs` sees bench runs too *)
let ledger_append ~wall_s ~artifact =
  if not !opt_no_ledger then begin
    let path =
      if !opt_ledger <> "" then !opt_ledger else Ledger.default_path ()
    in
    let options =
      Printf.sprintf "scale=%s,json=%b" (Tables.scale_name (scale ())) !opt_json
    in
    let record =
      Ledger.make ~subcommand:"bench" ~argv:(Array.to_list Sys.argv)
        ~instance:!subcommand ~engine:"all" ~options ~verdict:"ok" ~wall_s
        ~counters:[]
        ~artifacts:(match artifact with None -> [] | Some a -> [ ("bench", a) ])
        ()
    in
    try Ledger.append ~path record with
    | Sys_error msg -> Format.eprintf "bench: ledger: %s@." msg
    | Unix.Unix_error (e, _, _) ->
      Format.eprintf "bench: ledger: %s@." (Unix.error_message e)
  end

let () =
  Arg.parse spec anon usage;
  Format.printf
    "rtlsat benchmark harness — reproduction of DAC'05 \"Structural Search@.\
     for RTL with Predicate Learning\" (%s)@.@."
    (if !opt_full then "FULL matrix" else "scaled bounds; --full or RTLSAT_FULL=1 for the paper's");
  let t0 = Unix.gettimeofday () in
  let artifact =
    if !opt_json then Some (bench_artifact ())
    else begin
      (match !subcommand with
       | "micro" -> micro ()
       | "ablation" -> ablation ()
       | "all" ->
         List.iter
           (fun (name, _) -> if name <> "sweep" then ignore (run_family name))
           families;
         ablation ();
         micro ()
       | name -> ignore (run_family name));
      None
    end
  in
  ledger_append ~wall_s:(Unix.gettimeofday () -. t0) ~artifact
