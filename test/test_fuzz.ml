(* Tests for the differential fuzzing subsystem: generator coverage
   and determinism, case round-tripping, the shrinker, the oracle's
   certificates, and replay of the committed regression corpus. *)

module Ir = Rtlsat_rtl.Ir
module N = Rtlsat_rtl.Netlist
module Bmc = Rtlsat_bmc.Bmc
module Case = Rtlsat_fuzz.Case
module Gen = Rtlsat_fuzz.Gen
module Oracle = Rtlsat_fuzz.Oracle
module Shrink = Rtlsat_fuzz.Shrink
module Fuzz = Rtlsat_fuzz.Fuzz

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---- generator ---- *)

let test_gen_deterministic () =
  let a = Case.to_string (Gen.circuit ~seed:7 ()) in
  let b = Case.to_string (Gen.circuit ~seed:7 ()) in
  check_string "same seed, same case" a b;
  let c = Case.to_string (Gen.circuit ~seed:8 ()) in
  check_bool "different seed, different case" true (a <> c)

let op_tag (n : Ir.node) =
  match n.Ir.op with
  | Ir.Input -> "input"
  | Ir.Const _ -> "const"
  | Ir.Reg _ -> "reg"
  | Ir.Not _ -> "not"
  | Ir.And _ -> "and"
  | Ir.Or _ -> "or"
  | Ir.Xor _ -> "xor"
  | Ir.Mux _ -> "mux"
  | Ir.Add { wrap = true; _ } -> "add"
  | Ir.Add { wrap = false; _ } -> "addext"
  | Ir.Sub _ -> "sub"
  | Ir.Mul_const _ -> "mulc"
  | Ir.Cmp _ -> "cmp"
  | Ir.Concat _ -> "concat"
  | Ir.Extract _ -> "extract"
  | Ir.Zext _ -> "zext"
  | Ir.Shl _ -> "shl"
  | Ir.Shr _ -> "shr"
  | Ir.Bitand _ -> "bitand"
  | Ir.Bitor _ -> "bitor"
  | Ir.Bitxor _ -> "bitxor"

let all_tags =
  [
    "input"; "const"; "reg"; "not"; "and"; "or"; "xor"; "mux"; "add";
    "addext"; "sub"; "mulc"; "cmp"; "concat"; "extract"; "zext"; "shl";
    "shr"; "bitand"; "bitor"; "bitxor";
  ]

let test_gen_op_coverage () =
  (* across a handful of seeds every constructor must appear, as must
     the width edges 1 and 61 and all three BMC semantics *)
  let seen = Hashtbl.create 32 in
  let widths = Hashtbl.create 8 in
  let sems = Hashtbl.create 4 in
  for seed = 0 to 19 do
    let case = Gen.circuit ~seed () in
    List.iter
      (fun n ->
         Hashtbl.replace seen (op_tag n) ();
         Hashtbl.replace widths n.Ir.width ())
      (Ir.nodes case.Case.circuit);
    Hashtbl.replace sems case.Case.semantics ()
  done;
  List.iter
    (fun tag -> check_bool (tag ^ " generated") true (Hashtbl.mem seen tag))
    all_tags;
  check_bool "width 1 generated" true (Hashtbl.mem widths 1);
  check_bool "width 61 generated" true (Hashtbl.mem widths 61);
  check_int "all three semantics" 3 (Hashtbl.length sems)

let test_gen_well_typed () =
  (* the builders enforce the invariants; make sure generation and
     unrolling never raise across many seeds and configs *)
  List.iter
    (fun (seed, cfg) ->
       let case = Gen.circuit ~cfg ~seed () in
       let inst = Case.instance case in
       check_bool "bool violation" true (Ir.is_bool inst.Bmc.violation))
    [
      (0, Gen.default);
      (1, { Gen.default with Gen.max_width = 1 });
      (2, { Gen.default with Gen.max_regs = 0 });
      (3, { Gen.default with Gen.max_nodes = 4 });
      (4, { Gen.default with Gen.max_width = 2; max_nodes = 6 });
    ]

(* ---- case round-trip ---- *)

let test_case_roundtrip () =
  for seed = 0 to 4 do
    let case = Gen.circuit ~seed () in
    let text = Case.to_string case in
    let back = Case.of_string text in
    check_string
      (Printf.sprintf "seed %d round-trip" seed)
      text (Case.to_string back);
    check_int "bound" case.Case.bound back.Case.bound;
    check_bool "semantics" true (case.Case.semantics = back.Case.semantics)
  done

(* ---- shrinker ---- *)

let test_shrink_converges () =
  (* under an always-true predicate the shrinker must drive the case
     to the measure's floor: bound 1 and a tiny live cone *)
  let case = Gen.circuit ~seed:3 () in
  let small, steps = Shrink.shrink ~still_failing:(fun _ -> true) case in
  check_int "bound minimized" 1 small.Case.bound;
  check_bool "few live nodes" true (Shrink.node_count small <= 3);
  check_bool "steps spent" true (steps > 0 && steps <= 256);
  check_bool "cone shrank" true
    (Shrink.node_count small < Shrink.node_count case)

let test_shrink_preserves_predicate () =
  (* a non-trivial failure predicate: the live cone still contains a
     register.  Every intermediate acceptance re-validates it, so the
     result must satisfy it too. *)
  let has_reg c =
    List.exists
      (fun n -> match n.Ir.op with Ir.Reg _ -> true | _ -> false)
      (Ir.nodes (Shrink.prune c).Case.circuit)
  in
  let case = Gen.circuit ~seed:11 ~cfg:{ Gen.default with Gen.max_regs = 2 } () in
  if has_reg case then begin
    let small, _ = Shrink.shrink ~still_failing:has_reg case in
    check_bool "predicate preserved" true (has_reg small);
    check_bool "not larger" true
      (Shrink.node_count small <= Shrink.node_count case)
  end

let test_shrink_rejects_all () =
  (* if nothing else fails, the (pruned) input comes back unchanged *)
  let case = Gen.circuit ~seed:5 () in
  let pruned = Shrink.prune case in
  let small, _ =
    Shrink.shrink ~still_failing:(fun c -> Case.to_string c = Case.to_string pruned) case
  in
  check_string "fixed point" (Case.to_string pruned) (Case.to_string small)

(* ---- oracle ---- *)

let quick_engines =
  [ Oracle.Engine.Hdpll; Oracle.Engine.Hdpll_sp; Oracle.Engine.Bitblast ]

let test_oracle_sat_certificate () =
  let c = N.create "sat1" in
  let a = N.input c ~name:"a" 3 in
  let p = N.eq_const c a 6 in
  N.output c "prop" p;
  let case = Case.make c ~prop:p ~bound:1 ~semantics:Bmc.Final in
  let o = Oracle.check ~engines:quick_engines case in
  check_bool "no failure" true (o.Oracle.failure = None);
  check_bool "sat certified by replay" true (o.Oracle.cert = Oracle.Witness_replay)

let test_oracle_unsat_certificate () =
  let c = N.create "unsat1" in
  let a = N.input c ~name:"a" 2 in
  let p = N.le c a (N.const c ~width:2 3) in
  N.output c "prop" p;
  let case = Case.make c ~prop:p ~bound:1 ~semantics:Bmc.Final in
  let o = Oracle.check ~engines:quick_engines case in
  check_bool "no failure" true (o.Oracle.failure = None);
  check_bool "unsat certified exhaustively" true
    (o.Oracle.cert = Oracle.Exhaustive 4)

let test_oracle_violated () =
  (* the refutation search's own violation check mirrors witness_ok *)
  let c = N.create "viol" in
  let a = N.input c ~name:"a" 2 in
  let p = N.eq_const c a 2 in
  N.output c "prop" p;
  let case = Case.make c ~prop:p ~bound:2 ~semantics:Bmc.Any in
  let inst = Case.instance case in
  check_bool "a=2 everywhere holds" false (Oracle.violated inst [ [ 2 ]; [ 2 ] ]);
  check_bool "a=1 in frame 2 violates" true (Oracle.violated inst [ [ 2 ]; [ 1 ] ])

(* ---- campaign driver ---- *)

let test_fuzz_run () =
  let cfg =
    {
      Fuzz.default with
      Fuzz.count = 3;
      engines = quick_engines;
      gen = { Gen.default with Gen.max_nodes = 8 };
      obs = Rtlsat_obs.Obs.create ();
    }
  in
  let s = Fuzz.run cfg in
  check_int "all instances run" 3 s.Fuzz.instances;
  check_int "no failures" 0 (List.length s.Fuzz.failures);
  check_int "obs counter" 3 (Rtlsat_obs.Obs.counter cfg.Fuzz.obs "fuzz.instances");
  check_int "classified" 3 (s.Fuzz.sat + s.Fuzz.unsat + s.Fuzz.timeouts);
  match Fuzz.summary_json cfg s with
  | Rtlsat_obs.Json.Obj fields ->
    check_bool "schema tag" true
      (List.assoc_opt "schema" fields = Some (Rtlsat_obs.Json.Str "rtlsat.fuzz/1"))
  | _ -> Alcotest.fail "summary must be an object"

(* ---- corpus replay ---- *)

let corpus_cases () =
  (* dune runtest runs us next to the corpus; under `dune exec` fall
     back to the directory holding the test binary *)
  let dir =
    if Sys.file_exists "corpus" then "corpus"
    else Filename.concat (Filename.dirname Sys.executable_name) "corpus"
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".rtl")
  |> List.filter (fun f ->
       (* CORPUS_ONLY=substr narrows the replay when debugging a case *)
       match Sys.getenv_opt "CORPUS_ONLY" with
       | None -> true
       | Some s ->
         let n = String.length s and m = String.length f in
         let rec at i = i + n <= m && (String.sub f i n = s || at (i + 1)) in
         at 0)
  |> List.sort compare
  |> List.map (fun f -> (f, Case.of_file (Filename.concat dir f)))

(* ---- property: interval splitting never changes verdicts ---- *)

(* split-on vs split-off HDPLL vs the bit-blast oracle on random small
   circuits: every non-timeout verdict must agree, and a Sat answer is
   only reported after the model replayed through the simulator inside
   [run_instance] (a rejected witness surfaces as Abort and fails the
   property) *)
let split_verdict_agreement =
  QCheck.Test.make ~count:40 ~name:"split on/off agrees with bit-blast"
    QCheck.(small_nat)
    (fun seed ->
       let case =
         Gen.circuit ~seed ~cfg:{ Gen.default with Gen.max_nodes = 10 } ()
       in
       let inst = Case.instance case in
       let module E = Oracle.Engine in
       let run ?split engine =
         (E.run_instance
            ~req:(Rtlsat_harness.Req.make ~timeout:2.0 ?split ())
            engine inst)
           .E.verdict
       in
       let vs =
         [ run ~split:true E.Hdpll; run ~split:false E.Hdpll; run E.Bitblast ]
       in
       if List.exists (function E.Abort _ -> true | _ -> false) vs then false
       else
         match
           List.filter (function E.Sat | E.Unsat -> true | _ -> false) vs
         with
         | [] -> true (* timeouts never count as disagreement *)
         | v :: rest -> List.for_all (( = ) v) rest)

let test_corpus_replay () =
  let cases = corpus_cases () in
  if Sys.getenv_opt "CORPUS_ONLY" = None then
    check_bool "corpus is non-empty" true (List.length cases >= 5);
  List.iter
    (fun (file, case) ->
       Printf.eprintf "[corpus] %s\n%!" file;
       let o =
         Oracle.check ~req:(Rtlsat_harness.Req.make ~timeout:5.0 ()) case
       in
       match o.Oracle.failure with
       | None -> ()
       | Some _ ->
         Alcotest.fail (Printf.sprintf "%s: %s" file (Oracle.describe o)))
    cases

let () =
  Alcotest.run "fuzz"
    [
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "op coverage" `Quick test_gen_op_coverage;
          Alcotest.test_case "well-typed configs" `Quick test_gen_well_typed;
        ] );
      ("case", [ Alcotest.test_case "round-trip" `Quick test_case_roundtrip ]);
      ( "shrink",
        [
          Alcotest.test_case "converges" `Quick test_shrink_converges;
          Alcotest.test_case "preserves predicate" `Quick test_shrink_preserves_predicate;
          Alcotest.test_case "rejects all" `Quick test_shrink_rejects_all;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "sat certificate" `Quick test_oracle_sat_certificate;
          Alcotest.test_case "unsat certificate" `Quick test_oracle_unsat_certificate;
          Alcotest.test_case "violation check" `Quick test_oracle_violated;
        ] );
      ("driver", [ Alcotest.test_case "small campaign" `Quick test_fuzz_run ]);
      Qutil.qsuite "split-properties" [ split_verdict_agreement ];
      ("corpus", [ Alcotest.test_case "replay" `Slow test_corpus_replay ]);
    ]
