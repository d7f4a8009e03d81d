module Bmc = Rtlsat_bmc.Bmc
module Unroll = Rtlsat_bmc.Unroll
module E = Rtlsat_constr.Encode
module Solver = Rtlsat_core.Solver

type outcome = Proved of int | Falsified of int | Unknown

let solve_encoded options enc =
  match (Solver.solve ~options enc).Solver.result with
  | Solver.Sat _ -> `Sat
  | Solver.Unsat -> `Unsat
  | Solver.Timeout -> `Timeout

let base_case options circuit prop k =
  let inst = Bmc.make circuit ~prop ~bound:k ~semantics:Bmc.Any () in
  let enc = E.encode (Unroll.combo inst.Bmc.unrolled) in
  E.assume_bool enc inst.Bmc.violation true;
  solve_encoded options enc

let step_case options circuit prop k =
  (* frames 0..k from an arbitrary state; prop holds in 0..k-1 and
     fails in frame k *)
  let u = Unroll.unroll ~free_init:true circuit ~roots:[ prop ] ~frames:(k + 1) in
  let enc = E.encode (Unroll.combo u) in
  for f = 0 to k - 1 do
    E.assume_bool enc (Unroll.node_at u prop f) true
  done;
  E.assume_bool enc (Unroll.node_at u prop k) false;
  solve_encoded options enc

let prove ?(options = Solver.hdpll_sp) ?(max_k = 20) circuit ~prop =
  let rec go k =
    if k > max_k then Unknown
    else begin
      match base_case options circuit prop k with
      | `Sat -> Falsified k
      | `Timeout -> Unknown
      | `Unsat ->
        (match step_case options circuit prop k with
         | `Unsat -> Proved k
         | `Timeout -> Unknown
         | `Sat -> go (k + 1))
    end
  in
  go 1
