(* Tests for the reconstructed ITC'99 benchmarks: structural sanity,
   simulation behaviour, property status at small bounds, and
   cross-engine agreement on real BMC instances. *)

module Ir = Rtlsat_rtl.Ir
module N = Rtlsat_rtl.Netlist
module Sim = Rtlsat_rtl.Sim
module Registry = Rtlsat_itc99.Registry
module Bmc = Rtlsat_bmc.Bmc
module Engine = Rtlsat_harness.Engine

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_registry () =
  Alcotest.(check (list string)) "circuits"
    [ "b01"; "b02"; "b03"; "b04"; "b05"; "b06"; "b07"; "b08"; "b09"; "b10"; "b11"; "b13" ]
    Registry.circuits;
  List.iter
    (fun name ->
       let c, props = Registry.build name in
       check_bool (name ^ " has properties") true (List.length props >= 2);
       check_bool (name ^ " has registers") true (List.length (Ir.regs c) >= 2);
       List.iter
         (fun (pname, p) ->
            check_bool
              (Printf.sprintf "%s_%s boolean" name pname)
              true (Ir.is_bool p))
         props)
    Registry.circuits

let test_unknown_circuit () =
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Registry.build "b99"))

(* random simulation: invariant properties must hold on random traces *)
let invariant_props =
  [ ("b01", "2"); ("b02", "1"); ("b02", "2"); ("b03", "1"); ("b03", "2");
    ("b04", "1"); ("b04", "3"); ("b05", "1"); ("b05", "2"); ("b06", "1"); ("b06", "2"); ("b07", "1");
    ("b07", "2"); ("b08", "1"); ("b08", "2"); ("b09", "1"); ("b09", "2"); ("b09", "3"); ("b10", "1");
    ("b10", "2"); ("b13", "1"); ("b13", "2"); ("b13", "3"); ("b13", "5");
    ("b13", "8") ]

let test_invariants_hold_on_random_traces () =
  let rng = Random.State.make [| 42 |] in
  List.iter
    (fun (cname, pname) ->
       let c, props = Registry.build cname in
       let p = List.assoc pname props in
       let inputs_of _ =
         List.map
           (fun n -> (n, Random.State.int rng (Ir.max_value n + 1)))
           (Ir.inputs c)
       in
       let traces = Sim.run c ~inputs:(List.init 60 inputs_of) in
       List.iteri
         (fun t vals ->
            check_int
              (Printf.sprintf "%s_%s cycle %d" cname pname t)
              1 (Sim.value vals p))
         traces)
    invariant_props

let test_b01_serial_adder () =
  let c, _ = Registry.build "b01" in
  let l1 = N.find_input c "line1" and l2 = N.find_input c "line2" in
  let outp = N.find_output c "outp" in
  (* adding the serial numbers 1 and 1 gives sum bit 0 then carry 1 *)
  let traces = Sim.run c ~inputs:[ [ (l1, 1); (l2, 1) ]; [ (l1, 0); (l2, 0) ] ] in
  check_int "sum bit cycle1" 0 (Sim.value (List.nth traces 0) outp);
  (* outp is registered: cycle 1 shows the cycle-0 sum (1+1 = 0 carry 1) *)
  check_int "sum bit cycle2" 0 (Sim.value (List.nth traces 1) outp)

let test_b04_minmax_behaviour () =
  let c, _ = Registry.build "b04" in
  let data = N.find_input c "data_in" in
  let restart = N.find_input c "restart" in
  let out = N.find_output c "data_out" in
  let feed = List.map (fun v -> [ (data, v); (restart, 0) ]) [ 10; 200; 3; 77 ] in
  let traces = Sim.run c ~inputs:feed in
  (* after seeing 10 (seed), 200, 3: rmax=200, rmin=3 -> spread 197 *)
  check_int "spread" 197 (Sim.value (List.nth traces 3) out)

let test_b13_handshake () =
  let c, _ = Registry.build "b13" in
  let eoc = N.find_input c "eoc" in
  let din = N.find_input c "din" in
  let din_valid = N.find_input c "din_valid" in
  let load = N.find_output c "load_dato" in
  let muxe = N.find_output c "mux_en" in
  (* start a byte, strobe 8 ones in, watch the transmitter fire *)
  let cycle ?(e = 0) ?(d = 1) () = [ (eoc, e); (din, d); (din_valid, 1) ] in
  let inputs = (cycle ~e:1 () :: List.init 10 (fun _ -> cycle ())) @ [ cycle (); cycle () ] in
  let traces = Sim.run c ~inputs in
  let some_load = List.exists (fun vals -> Sim.value vals load = 1) traces in
  let some_send = List.exists (fun vals -> Sim.value vals muxe = 1) traces in
  check_bool "load_dato fired" true some_load;
  check_bool "mux_en fired" true some_send

let test_instance_names () =
  Alcotest.(check string) "label" "b13_5(50)"
    (Registry.instance_name ~circuit:"b13" ~prop:"5" ~bound:50)

(* engine agreement on small real instances *)
let small_matrix =
  [
    ("b01", "1", 6); ("b01", "2", 8); ("b02", "1", 8); ("b02", "3", 8);
    ("b03", "1", 6); ("b03", "3", 6); ("b04", "1", 5); ("b04", "2", 5);
    ("b05", "1", 8); ("b05", "3", 8); ("b06", "1", 8); ("b06", "3", 6); ("b07", "2", 6); ("b07", "3", 5);
    ("b08", "1", 6); ("b08", "3", 4);
    ("b09", "1", 8); ("b09", "3", 12); ("b10", "2", 8); ("b10", "3", 10);
    ("b11", "2", 6); ("b11", "3", 4); ("b13", "3", 8); ("b13", "40", 13);
  ]

let test_engines_agree_on_small_instances () =
  List.iter
    (fun (circuit, prop, bound) ->
       let label = Registry.instance_name ~circuit ~prop ~bound in
       let verdicts =
         List.map
           (fun e ->
              let inst = Registry.instance ~circuit ~prop ~bound in
              let run =
                Engine.run_instance
                  ~req:(Rtlsat_harness.Req.make ~timeout:60.0 ())
                  e inst
              in
              (e, run.Engine.verdict))
           [ Engine.Hdpll; Engine.Hdpll_s; Engine.Hdpll_sp; Engine.Bitblast ]
       in
       match verdicts with
       | [] -> ()
       | (_, first) :: rest ->
         check_bool (label ^ " decided") true
           (first = Engine.Sat || first = Engine.Unsat);
         List.iter
           (fun (e, v) ->
              check_bool
                (Printf.sprintf "%s: %s agrees" label (Engine.name_of e))
                true (v = first))
           rest)
    small_matrix

let test_b13_40_13_is_sat () =
  (* the paper's one satisfiable b13 row *)
  let inst = Registry.instance ~circuit:"b13" ~prop:"40" ~bound:13 in
  let run =
    Engine.run_instance
      ~req:(Rtlsat_harness.Req.make ~timeout:60.0 ())
      Engine.Hdpll_s inst
  in
  check_bool "b13_40(13) sat" true (run.Engine.verdict = Engine.Sat)

let test_b13_40_below_threshold_unsat () =
  let inst = Registry.instance ~circuit:"b13" ~prop:"40" ~bound:11 in
  let run =
    Engine.run_instance
      ~req:(Rtlsat_harness.Req.make ~timeout:60.0 ())
      Engine.Hdpll inst
  in
  check_bool "b13_40(11) unsat" true (run.Engine.verdict = Engine.Unsat)

let test_op_counts_grow_linearly () =
  let ops b = Engine.op_counts (Registry.instance ~circuit:"b13" ~prop:"1" ~bound:b) in
  let a10, b10 = ops 10 and a20, b20 = ops 20 in
  check_bool "arith grows" true (a20 > a10 && a20 < 3 * a10);
  check_bool "bool grows" true (b20 > b10 && b20 < 3 * b10)

let () =
  Alcotest.run "itc99"
    [
      ( "registry",
        [
          Alcotest.test_case "circuits & properties" `Quick test_registry;
          Alcotest.test_case "unknown circuit" `Quick test_unknown_circuit;
          Alcotest.test_case "instance names" `Quick test_instance_names;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "invariants on random traces" `Quick
            test_invariants_hold_on_random_traces;
          Alcotest.test_case "b01 serial adder" `Quick test_b01_serial_adder;
          Alcotest.test_case "b04 min/max" `Quick test_b04_minmax_behaviour;
          Alcotest.test_case "b13 handshake" `Quick test_b13_handshake;
        ] );
      ( "instances",
        [
          Alcotest.test_case "engines agree (small)" `Slow
            test_engines_agree_on_small_instances;
          Alcotest.test_case "b13_40(13) sat" `Quick test_b13_40_13_is_sat;
          Alcotest.test_case "b13_40(11) unsat" `Quick test_b13_40_below_threshold_unsat;
          Alcotest.test_case "op counts" `Quick test_op_counts_grow_linearly;
        ] );
    ]
