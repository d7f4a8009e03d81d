(* Bounded model checking tour: check safety properties of the
   reconstructed ITC'99 b04 (running min/max) and print a
   counterexample trace for a violable one.

   This is the workload of the paper's evaluation: unroll the RTL,
   assert a property violation, and hand the hybrid problem to the
   engines. *)

module Ir = Rtlsat_rtl.Ir
module N = Rtlsat_rtl.Netlist
module Sim = Rtlsat_rtl.Sim
module E = Rtlsat_constr.Encode
module Unroll = Rtlsat_bmc.Unroll
module Bmc = Rtlsat_bmc.Bmc
module Registry = Rtlsat_itc99.Registry
module Solver = Rtlsat_core.Solver
module Engine = Rtlsat_harness.Engine

let check circuit prop bound =
  let label = Registry.instance_name ~circuit ~prop ~bound in
  let inst = Registry.instance ~circuit ~prop ~bound in
  let enc = E.encode (Unroll.combo inst.Bmc.unrolled) in
  E.assume_bool enc inst.Bmc.violation true;
  let { Solver.result; stats; _ } = Solver.solve ~options:Solver.hdpll_sp enc in
  (match result with
   | Solver.Unsat ->
     Format.printf "%-12s holds up to bound %d (UNSAT, %d conflicts)@." label
       bound stats.Solver.conflicts
   | Solver.Timeout -> Format.printf "%-12s timeout@." label
   | Solver.Sat m ->
     Format.printf "%-12s VIOLATED at frame %d — counterexample:@." label (bound - 1);
     let value n = m.(E.var enc n) in
     assert (Bmc.witness_ok inst value);
     (* print the input trace *)
     let src = inst.Bmc.source in
     List.iteri
       (fun f _ ->
          let ins =
            List.map
              (fun n ->
                 Printf.sprintf "%s=%d" (Ir.node_name n)
                   (value (Unroll.input_at inst.Bmc.unrolled n f)))
              (Ir.inputs src)
          in
          Format.printf "    cycle %2d: %s@." f (String.concat " " ins))
       (List.init bound (fun f -> f)));
  Format.printf "@."

let () =
  Format.printf "== BMC of the reconstructed ITC'99 b04 ==@.@.";
  (* the RMAX >= RMIN invariant holds *)
  check "b04" "1" 8;
  (* the full spread is reachable: counterexample printed *)
  check "b04" "2" 5;
  Format.printf "== and the paper's satisfiable b13 row ==@.@.";
  check "b13" "40" 13
