(* Tests for the unroller and BMC instance construction. *)

module Ir = Rtlsat_rtl.Ir
module N = Rtlsat_rtl.Netlist
module Sim = Rtlsat_rtl.Sim
module Unroll = Rtlsat_bmc.Unroll
module Bmc = Rtlsat_bmc.Bmc
module E = Rtlsat_constr.Encode
module Solver = Rtlsat_core.Solver
module Case = Rtlsat_fuzz.Case
module Gen = Rtlsat_fuzz.Gen
module Registry = Rtlsat_itc99.Registry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* gated 3-bit counter with a comparator output *)
let build_counter () =
  let c = N.create "cnt" in
  let en = N.input c ~name:"en" 1 in
  let cnt = N.reg c ~name:"cnt" ~width:3 ~init:0 () in
  N.connect cnt (N.mux c ~sel:en ~t:(N.inc c cnt) ~e:cnt ());
  let at5 = N.eq_const c cnt 5 in
  N.output c "at5" at5;
  (c, en, cnt, at5)

let test_unroll_structure () =
  let c, en, cnt, at5 = build_counter () in
  let u = Unroll.unroll c ~roots:[ at5 ] ~frames:4 in
  check_int "frames" 4 (Unroll.frames u);
  (* 4 copies of the input *)
  check_int "inputs" 4 (List.length (Ir.inputs (Unroll.combo u)));
  check_int "no regs" 0 (List.length (Ir.regs (Unroll.combo u)));
  (* frame 0 register is the reset constant *)
  (match (Unroll.node_at u cnt 0).Ir.op with
   | Ir.Const 0 -> ()
   | _ -> Alcotest.fail "frame-0 register should be the reset constant");
  check_bool "input_at works" true (Ir.is_bool (Unroll.input_at u en 2))

let test_unroll_matches_sequential_sim () =
  (* evaluate the unrolled combinational circuit on a concrete input
     trace and compare every frame against the sequential simulator *)
  let c, en, cnt, at5 = build_counter () in
  let frames = 9 in
  let u = Unroll.unroll c ~roots:[ at5 ] ~frames in
  let trace = [ 1; 1; 0; 1; 1; 1; 0; 1; 1 ] in
  let combo = Unroll.combo u in
  let combo_inputs =
    List.mapi (fun f v -> (Unroll.input_at u en f, v)) trace
  in
  let combo_vals = Sim.eval combo (Sim.initial_state combo) ~inputs:combo_inputs in
  let seq_traces = Sim.run c ~inputs:(List.map (fun v -> [ (en, v) ]) trace) in
  List.iteri
    (fun f vals ->
       check_int
         (Printf.sprintf "cnt frame %d" f)
         (Sim.value vals cnt)
         (Sim.value combo_vals (Unroll.node_at u cnt f));
       check_int
         (Printf.sprintf "at5 frame %d" f)
         (Sim.value vals at5)
         (Sim.value combo_vals (Unroll.node_at u at5 f)))
    seq_traces

let test_unroll_rejects () =
  let c = N.create "bad" in
  let r = N.reg c ~width:2 ~init:0 () in
  Alcotest.check_raises "unconnected"
    (Invalid_argument "Unroll.unroll: unconnected register") (fun () ->
        ignore (Unroll.unroll c ~roots:[ r ] ~frames:2));
  let c2, _, _, at5 = build_counter () in
  Alcotest.check_raises "frames<1" (Invalid_argument "Unroll.unroll: frames < 1")
    (fun () -> ignore (Unroll.unroll c2 ~roots:[ at5 ] ~frames:0))

(* ---- the unrolled cone against the sequential simulator ---- *)

let random_value rng w = Int64.to_int (Random.State.int64 rng (Int64.shift_left 1L w))

(* One random input trace: [Sim] on the unrolled circuit must give the
   property the value [Sim.run] gives it on the source, at every frame,
   and every source input — inside the cone or not — must have its own
   fresh image in every frame.  A dropped input raises [Not_found]
   from [input_at]; a wrong fold shows as a value mismatch. *)
let check_unroll_vs_sim ~label rng c prop ~frames =
  let u = Unroll.unroll c ~roots:[ prop ] ~frames in
  let combo = Unroll.combo u in
  let inputs = Ir.inputs c in
  check_int (label ^ " one image per input and frame")
    (frames * List.length inputs)
    (List.length (Ir.inputs combo));
  check_bool (label ^ " no node growth") true (combo.Ir.ncount <= frames * c.Ir.ncount);
  let trace =
    List.init frames (fun _ ->
        List.map (fun n -> (n, random_value rng n.Ir.width)) inputs)
  in
  let combo_inputs =
    List.concat
      (List.mapi
         (fun f step -> List.map (fun (n, v) -> (Unroll.input_at u n f, v)) step)
         trace)
  in
  let vals = Sim.eval combo (Sim.initial_state combo) ~inputs:combo_inputs in
  List.iteri
    (fun f seq ->
       check_int
         (Printf.sprintf "%s prop frame %d" label f)
         (Sim.value seq prop)
         (Sim.value vals (Unroll.node_at u prop f)))
    (Sim.run c ~inputs:trace)

let test_unroll_vs_sim_corpus () =
  let rng = Random.State.make [| 42 |] in
  List.iter
    (fun (file, case) ->
       for _ = 1 to 4 do
         check_unroll_vs_sim ~label:file rng case.Case.circuit case.Case.prop
           ~frames:(case.Case.bound + 3)
       done)
    (Qutil.corpus_cases ())

let test_unroll_vs_sim_generated () =
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 150 do
    let seed = Random.State.bits rng in
    let case = Gen.circuit ~seed () in
    check_unroll_vs_sim
      ~label:(Printf.sprintf "gen seed %d" seed)
      rng case.Case.circuit case.Case.prop ~frames:(case.Case.bound + 3)
  done

let test_unroll_cone_smaller () =
  (* every source node in every frame gives 19,210 nodes here *)
  let inst = Registry.instance ~circuit:"b13" ~prop:"8" ~bound:200 in
  let n = (Unroll.combo inst.Bmc.unrolled).Ir.ncount in
  check_bool (Printf.sprintf "b13_8(200) combo has %d < 19210 nodes" n) true (n < 19210)

let solve_instance inst =
  let enc = E.encode (Unroll.combo inst.Bmc.unrolled) in
  E.assume_bool enc inst.Bmc.violation true;
  let { Solver.result; _ } = Solver.solve enc in
  (enc, result)

let test_bmc_final_semantics () =
  (* prop: cnt ≠ 5, final-frame semantics — the counter can reach 5
     first at frame 5, so bounds ≤ 5 are UNSAT, bound 6 is SAT *)
  let c, _, cnt, _ = build_counter () in
  let prop = N.ne c cnt (N.const c ~width:3 5) in
  let inst_u = Bmc.make c ~prop ~bound:5 () in
  let _, r = solve_instance inst_u in
  check_bool "bound 5 unsat" true (r = Solver.Unsat);
  let inst_s = Bmc.make c ~prop ~bound:6 () in
  let enc, r = solve_instance inst_s in
  (match r with
   | Solver.Sat m ->
     check_bool "witness replays" true
       (Bmc.witness_ok inst_s (fun n -> m.(E.var enc n)))
   | _ -> Alcotest.fail "bound 6 should be sat")

let test_bmc_any_semantics () =
  (* with Any semantics, every bound >= 6 is satisfiable *)
  let c, _, cnt, _ = build_counter () in
  let prop = N.ne c cnt (N.const c ~width:3 5) in
  let inst = Bmc.make c ~prop ~bound:8 ~semantics:Bmc.Any () in
  let enc, r = solve_instance inst in
  match r with
  | Solver.Sat m ->
    check_bool "witness replays" true (Bmc.witness_ok inst (fun n -> m.(E.var enc n)))
  | _ -> Alcotest.fail "expected sat"

let test_bmc_never_semantics () =
  (* guarantee: "cnt reaches 5 at least once within k" — violated when
     the enable can be held low, so the instance is SAT *)
  let c, _, cnt, _ = build_counter () in
  let reached = N.eq_const c cnt 5 in
  let inst = Bmc.make c ~prop:reached ~bound:8 ~semantics:Bmc.Never () in
  let enc, r = solve_instance inst in
  (match r with
   | Solver.Sat m ->
     check_bool "witness replays" true (Bmc.witness_ok inst (fun n -> m.(E.var enc n)))
   | _ -> Alcotest.fail "expected sat (hold enable low)");
  (* a guarantee that cannot be dodged: cnt equals 0 at frame 0 *)
  let zero = N.eq_const c cnt 0 in
  let inst = Bmc.make c ~prop:zero ~bound:3 ~semantics:Bmc.Never () in
  let _, r = solve_instance inst in
  check_bool "unsat" true (r = Solver.Unsat)

let test_witness_rejects_bogus () =
  let c, _, cnt, _ = build_counter () in
  let prop = N.ne c cnt (N.const c ~width:3 5) in
  let inst = Bmc.make c ~prop ~bound:6 () in
  (* all-zero inputs never reach 5 *)
  check_bool "bogus rejected" false (Bmc.witness_ok inst (fun _ -> 0))

let () =
  Alcotest.run "bmc"
    [
      ( "unroll",
        [
          Alcotest.test_case "structure" `Quick test_unroll_structure;
          Alcotest.test_case "matches sequential sim" `Quick
            test_unroll_matches_sequential_sim;
          Alcotest.test_case "rejects bad input" `Quick test_unroll_rejects;
          Alcotest.test_case "cone = sim on the corpus" `Quick test_unroll_vs_sim_corpus;
          Alcotest.test_case "cone = sim on generated circuits" `Quick
            test_unroll_vs_sim_generated;
          Alcotest.test_case "b13_8(200) cone is smaller" `Quick test_unroll_cone_smaller;
        ] );
      ( "bmc",
        [
          Alcotest.test_case "final semantics boundary" `Quick test_bmc_final_semantics;
          Alcotest.test_case "any semantics" `Quick test_bmc_any_semantics;
          Alcotest.test_case "never (bounded guarantee)" `Quick test_bmc_never_semantics;
          Alcotest.test_case "witness validation" `Quick test_witness_rejects_bogus;
        ] );
    ]
