module Bmc = Rtlsat_bmc.Bmc
module Unroll = Rtlsat_bmc.Unroll
module E = Rtlsat_constr.Encode
module Solver = Rtlsat_core.Solver
module Mono = Rtlsat_obs.Mono

type outcome = Proved of int | Falsified of int | Unknown

let engine = Engine.Hdpll_sp

let base_case req circuit prop k =
  let inst = Bmc.make circuit ~prop ~bound:k ~semantics:Bmc.Any () in
  (Engine.run_instance ~req engine inst).Engine.verdict

let step_case req circuit prop k =
  (* frames 0..k from an arbitrary state; prop holds in 0..k-1 and
     fails in frame k *)
  let u = Unroll.unroll ~free_init:true circuit ~roots:[ prop ] ~frames:(k + 1) in
  let enc = E.encode (Unroll.combo u) in
  for f = 0 to k - 1 do
    E.assume_bool enc (Unroll.node_at u prop f) true
  done;
  E.assume_bool enc (Unroll.node_at u prop k) false;
  let deadline = Req.deadline_from req (Mono.now ()) in
  let options = Engine.hybrid_options engine req ~deadline in
  (Solver.solve ~options enc).Solver.result

let prove ?(req = Req.default) ?(max_k = 20) circuit ~prop =
  let rec go k =
    if k > max_k then Unknown
    else begin
      match base_case req circuit prop k with
      | Engine.Sat -> Falsified k
      | Engine.Timeout | Engine.Abort _ -> Unknown
      | Engine.Unsat ->
        (match step_case req circuit prop k with
         | Solver.Unsat -> Proved k
         | Solver.Timeout -> Unknown
         | Solver.Sat _ -> go (k + 1))
    end
  in
  go 1
