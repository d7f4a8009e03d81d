module Bmc = Rtlsat_bmc.Bmc
module Unroll = Rtlsat_bmc.Unroll
module E = Rtlsat_constr.Encode
module Solver = Rtlsat_core.Solver
module Bb = Rtlsat_baselines.Bitblast
module Lz = Rtlsat_baselines.Lazy_cdp
module Obs = Rtlsat_obs.Obs
module Json = Rtlsat_obs.Json
module Mono = Rtlsat_obs.Mono

type id = Hdpll | Hdpll_s | Hdpll_sp | Hdpll_p | Bitblast | Lazy_cdp

let name_of = function
  | Hdpll -> "hdpll"
  | Hdpll_s -> "hdpll+s"
  | Hdpll_sp -> "hdpll+s+p"
  | Hdpll_p -> "hdpll+p"
  | Bitblast -> "bitblast"
  | Lazy_cdp -> "lazy-cdp"

let all_ids = [ Hdpll; Hdpll_s; Hdpll_sp; Hdpll_p; Bitblast; Lazy_cdp ]

let of_name s =
  List.find_opt (fun id -> String.equal (name_of id) s) all_ids

let table2_engines = [ Hdpll; Hdpll_s; Hdpll_sp; Bitblast; Lazy_cdp ]

type verdict = Sat | Unsat | Timeout | Abort of string

let verdict_string = function
  | Sat -> "sat"
  | Unsat -> "unsat"
  | Timeout -> "timeout"
  | Abort _ -> "abort"

let verdict_symbol = function
  | Sat -> "S"
  | Unsat -> "U"
  | Timeout -> "-to-"
  | Abort _ -> "-A-"

type run = {
  verdict : verdict;
  time : float;
  relations : int;
  learn_time : float;
  decisions : int;
  conflicts : int;
  stats : Solver.stats option;
  metrics : Obs.snapshot option;
}

type sweep_step = {
  sw_bound : int;
  sw_run : run;
  sw_carried_clauses : int;
  sw_carried_relations : int;
}

type caps = {
  supports_sessions : bool;
  supports_assumptions : bool;
  exports_learned_clauses : bool;
  honors_simplify : bool;
  honors_split : bool;
}

let caps_of = function
  | Hdpll | Hdpll_s | Hdpll_sp | Hdpll_p ->
    {
      supports_sessions = true;
      supports_assumptions = true;
      exports_learned_clauses = true;
      honors_simplify = true;
      honors_split = true;
    }
  | Bitblast ->
    {
      supports_sessions = true;
      supports_assumptions = true;
      exports_learned_clauses = false;
      honors_simplify = true;
      honors_split = false;
    }
  | Lazy_cdp ->
    {
      supports_sessions = false;
      supports_assumptions = false;
      exports_learned_clauses = false;
      honors_simplify = false;
      honors_split = false;
    }

module type S = sig
  val id : id
  val name : string
  val caps : caps

  type session

  val create : req:Req.t -> Bmc.instance -> session

  val session :
    req:Req.t ->
    ?semantics:Bmc.semantics ->
    Rtlsat_rtl.Ir.circuit ->
    prop:Rtlsat_rtl.Ir.node ->
    session

  val solve : req:Req.t -> session -> run
  val sweep_step : req:Req.t -> session -> bound:int -> sweep_step
  val cancel : session -> unit
  val snapshot : session -> Obs.snapshot option
end

let snap obs = if obs.Obs.enabled then Some (Obs.snapshot obs) else None

let wrong_mode fn = invalid_arg ("Engine." ^ fn ^ ": wrong session mode")

(* ---- the hybrid request translation and witness replay, shared with
   k-induction and the cube-and-conquer driver ---- *)

let hybrid_base = function
  | Hdpll -> Some Solver.hdpll
  | Hdpll_s -> Some Solver.hdpll_s
  | Hdpll_sp -> Some Solver.hdpll_sp
  | Hdpll_p -> Some Solver.hdpll_p
  | Bitblast | Lazy_cdp -> None

let is_hybrid id = Option.is_some (hybrid_base id)

let hybrid_options id (req : Req.t) ~deadline =
  match hybrid_base id with
  | None -> invalid_arg ("Engine.hybrid_options: " ^ name_of id)
  | Some base ->
    {
      base with
      Solver.deadline;
      learn_threshold = req.Req.learn_threshold;
      obs = req.Req.obs;
      dump_graph_max = req.Req.dump_graph_max;
      split = req.Req.split;
      simplify = req.Req.simplify;
      inprocess = req.Req.inprocess;
      cancel = req.Req.cancel;
      on_learn = req.Req.on_learn;
    }

let replay inst value =
  if Bmc.witness_ok inst value then Sat else Abort "witness failed replay"

let hybrid_verdict inst enc = function
  | Solver.Unsat -> Unsat
  | Solver.Timeout -> Timeout
  | Solver.Sat m -> replay inst (fun n -> m.(E.var enc n))

(* one-shot encoding with the violation asserted as a unit clause *)
let encode_instance obs inst =
  Obs.span obs Obs.Encode (fun () ->
      let enc = E.encode (Unroll.combo inst.Bmc.unrolled) in
      E.assume_bool enc inst.Bmc.violation true;
      enc)

(* ---- the four hybrid configurations, over Solver / Solver.Session ---- *)

module Make_hybrid (C : sig
    val id : id
  end) : S = struct
  let id = C.id
  let name = name_of C.id
  let caps = caps_of C.id

  type mode =
    | One_shot of { inst : Bmc.instance; enc : E.t }
    | Sweep of { sw : Bmc.sweep; enc : E.t; sess : Solver.Session.session }

  type session = { s_req : Req.t; s_created : float; mode : mode }

  let create ~req inst =
    let t0 = Mono.now () in
    let enc = encode_instance req.Req.obs inst in
    { s_req = req; s_created = t0; mode = One_shot { inst; enc } }

  let session ~req ?semantics source ~prop =
    let obs = req.Req.obs in
    let sw = Bmc.sweep source ~prop ?semantics () in
    let enc =
      Obs.span obs Obs.Encode (fun () ->
          E.encode (Unroll.combo (Bmc.sweep_unrolled sw)))
    in
    (* the per-call deadline is passed to [Session.solve]; the options
       deadline is a never-fires placeholder *)
    let sess =
      Solver.Session.create
        ~options:(hybrid_options id req ~deadline:infinity)
        enc
    in
    { s_req = req; s_created = Mono.now (); mode = Sweep { sw; enc; sess } }

  let mk_run ~t0 ~obs (stats : Solver.stats) verdict =
    {
      verdict;
      time = Mono.now () -. t0;
      relations = stats.Solver.relations;
      learn_time = stats.Solver.learn_time;
      decisions = stats.Solver.decisions;
      conflicts = stats.Solver.conflicts;
      stats = Some stats;
      metrics = snap obs;
    }

  let solve ~req s =
    match s.mode with
    | Sweep _ -> wrong_mode "solve"
    | One_shot { inst; enc } ->
      let t0 = s.s_created in
      let options =
        {
          (hybrid_options id s.s_req ~deadline:(Req.deadline_from req t0)) with
          Solver.dump_graph = s.s_req.Req.dump_graph;
        }
      in
      let { Solver.result; stats; _ } = Solver.solve ~options enc in
      mk_run ~t0 ~obs:s.s_req.Req.obs stats (hybrid_verdict inst enc result)

  let sweep_step ~req s ~bound =
    match s.mode with
    | One_shot _ -> wrong_mode "sweep_step"
    | Sweep { sw; enc; sess } ->
      let obs = s.s_req.Req.obs in
      let t0 = Mono.now () in
      let inst = Bmc.sweep_instance sw ~bound in
      Obs.span obs Obs.Encode (fun () -> E.extend enc);
      let r =
        Solver.Session.solve
          ~assumptions:
            [| Rtlsat_constr.Types.Pos (E.var enc inst.Bmc.violation) |]
          ~deadline:(Req.deadline_from req t0) sess
      in
      let { Solver.result; stats; _ } = r.Solver.Session.outcome in
      {
        sw_bound = bound;
        sw_run = mk_run ~t0 ~obs stats (hybrid_verdict inst enc result);
        sw_carried_clauses = r.Solver.Session.carried_clauses;
        sw_carried_relations = r.Solver.Session.carried_relations;
      }

  let cancel s = Atomic.set s.s_req.Req.cancel true
  let snapshot s = snap s.s_req.Req.obs
end

module Hdpll_e = Make_hybrid (struct let id = Hdpll end)
module Hdpll_s_e = Make_hybrid (struct let id = Hdpll_s end)
module Hdpll_sp_e = Make_hybrid (struct let id = Hdpll_sp end)
module Hdpll_p_e = Make_hybrid (struct let id = Hdpll_p end)

(* ---- the eager bit-blast baseline, over Bitblast / Cdcl ---- *)

module Bitblast_e : S = struct
  let id = Bitblast
  let name = name_of Bitblast
  let caps = caps_of Bitblast

  type mode =
    | One_shot of { inst : Bmc.instance; bb : Bb.t }
    | Sweep of { sw : Bmc.sweep; bb : Bb.t }

  type session = { s_req : Req.t; s_created : float; mode : mode }

  let verdict_of inst bb = function
    | Bb.Unsat -> Unsat
    | Bb.Timeout -> Timeout
    | Bb.Sat -> replay inst (Bb.node_value bb)

  let create ~req inst =
    let t0 = Mono.now () in
    let obs = req.Req.obs in
    let bb =
      Obs.span obs Obs.Encode (fun () ->
          let bb = Bb.encode (Unroll.combo inst.Bmc.unrolled) in
          Bb.assume_bool bb inst.Bmc.violation true;
          bb)
    in
    { s_req = req; s_created = t0; mode = One_shot { inst; bb } }

  let session ~req ?semantics source ~prop =
    let obs = req.Req.obs in
    let sw = Bmc.sweep source ~prop ?semantics () in
    let bb =
      Obs.span obs Obs.Encode (fun () ->
          Bb.encode (Unroll.combo (Bmc.sweep_unrolled sw)))
    in
    { s_req = req; s_created = Mono.now (); mode = Sweep { sw; bb } }

  let simplify_with_obs obs ~elim bb =
    Obs.span obs Obs.Simplify (fun () ->
        Bb.simplify ~elim bb;
        if elim && obs.Obs.enabled then begin
          let st = Bb.simp_stats bb in
          let open Rtlsat_simplify.Simp in
          Obs.add obs "simplify.subsumed" st.subsumed;
          Obs.add obs "simplify.strengthened" st.strengthened;
          Obs.add obs "simplify.eliminated" st.eliminated;
          Obs.add obs "simplify.probed" st.probed;
          if Obs.tracing obs then
            Obs.event obs "simplify.pass"
              [ ("engine", Json.Str "cdcl");
                ("subsumed", Json.Int st.subsumed);
                ("strengthened", Json.Int st.strengthened);
                ("eliminated", Json.Int st.eliminated);
                ("probed", Json.Int st.probed);
                ("equivs", Json.Int st.equivs) ]
        end)

  let solve ~req s =
    match s.mode with
    | Sweep _ -> wrong_mode "solve"
    | One_shot { inst; bb } ->
      let t0 = s.s_created in
      let obs = s.s_req.Req.obs in
      let deadline = Req.deadline_from req t0 in
      (* one-shot solve: the violation selector was added as a unit
         clause at [create], not an assumption, and the encoding never
         grows — so full preprocessing including variable elimination
         is sound *)
      if s.s_req.Req.simplify then simplify_with_obs obs ~elim:true bb;
      let verdict =
        verdict_of inst bb
          (Bb.solve ~deadline ~inprocess:s.s_req.Req.inprocess
             ~cancel:s.s_req.Req.cancel bb)
      in
      {
        verdict;
        time = Mono.now () -. t0;
        relations = 0;
        learn_time = 0.0;
        decisions = 0;
        conflicts = Rtlsat_sat.Cdcl.n_conflicts (Bb.solver bb);
        stats = None;
        metrics = snap obs;
      }

  let sweep_step ~req s ~bound =
    match s.mode with
    | One_shot _ -> wrong_mode "sweep_step"
    | Sweep { sw; bb } ->
      let obs = s.s_req.Req.obs in
      let sat = Bb.solver bb in
      let t0 = Mono.now () in
      let inst = Bmc.sweep_instance sw ~bound in
      Obs.span obs Obs.Encode (fun () -> Bb.extend bb);
      (* lemmas carried into this call: conflict-learned clauses
         retained so far, as counted by the CDCL kernel *)
      let carried = Rtlsat_sat.Cdcl.n_learned sat in
      let conflicts0 = Rtlsat_sat.Cdcl.n_conflicts sat in
      (* incremental sweep: the encoding keeps growing and literals
         are assumed per bound, so variable elimination stays off —
         subsumption, probing and equivalent-literal substitution
         remain sound (assumptions and later clauses are rewritten
         through the substitution) *)
      if s.s_req.Req.simplify then simplify_with_obs obs ~elim:false bb;
      let verdict =
        verdict_of inst bb
          (Bb.solve ~deadline:(Req.deadline_from req t0)
             ~inprocess:s.s_req.Req.inprocess ~cancel:s.s_req.Req.cancel
             ~assumptions:[ Bb.bool_lit bb inst.Bmc.violation ] bb)
      in
      let sw_run =
        {
          verdict;
          time = Mono.now () -. t0;
          relations = 0;
          learn_time = 0.0;
          decisions = 0;
          conflicts = Rtlsat_sat.Cdcl.n_conflicts sat - conflicts0;
          stats = None;
          metrics = snap obs;
        }
      in
      {
        sw_bound = bound;
        sw_run;
        sw_carried_clauses = carried;
        sw_carried_relations = 0;
      }

  let cancel s = Atomic.set s.s_req.Req.cancel true
  let snapshot s = snap s.s_req.Req.obs
end

(* ---- the lazy CDP baseline: no incremental interface, each bound is
   an honest fresh solve over the shared unroll ---- *)

module Lazy_cdp_e : S = struct
  let id = Lazy_cdp
  let name = name_of Lazy_cdp
  let caps = caps_of Lazy_cdp

  type mode =
    | One_shot of { inst : Bmc.instance; enc : E.t }
    | Sweep of { sw : Bmc.sweep }

  type session = { s_req : Req.t; s_created : float; mode : mode }

  let create ~req inst =
    let t0 = Mono.now () in
    let enc = encode_instance req.Req.obs inst in
    { s_req = req; s_created = t0; mode = One_shot { inst; enc } }

  let session ~req ?semantics source ~prop =
    let sw = Bmc.sweep source ~prop ?semantics () in
    { s_req = req; s_created = Mono.now (); mode = Sweep { sw } }

  let mk_run ~t0 ~obs inst enc (result, (st : Lz.stats)) =
    let verdict =
      match result with
      | Lz.Unsat -> Unsat
      | Lz.Timeout -> Timeout
      | Lz.Sat m -> replay inst (fun n -> m.(E.var enc n))
    in
    {
      verdict;
      time = Mono.now () -. t0;
      relations = 0;
      learn_time = 0.0;
      decisions = st.Lz.theory_calls;
      conflicts = st.Lz.blocking_clauses;
      stats = None;
      metrics = snap obs;
    }

  let solve ~req s =
    match s.mode with
    | Sweep _ -> wrong_mode "solve"
    | One_shot { inst; enc } ->
      let t0 = s.s_created in
      let deadline = Req.deadline_from req t0 in
      mk_run ~t0 ~obs:s.s_req.Req.obs inst enc
        (Lz.solve ~deadline ~cancel:s.s_req.Req.cancel enc.E.problem)

  let sweep_step ~req s ~bound =
    match s.mode with
    | One_shot _ -> wrong_mode "sweep_step"
    | Sweep { sw } ->
      let obs = s.s_req.Req.obs in
      let t0 = Mono.now () in
      let inst = Bmc.sweep_instance sw ~bound in
      let enc = encode_instance obs inst in
      {
        sw_bound = bound;
        sw_run =
          mk_run ~t0 ~obs inst enc
            (Lz.solve ~deadline:(Req.deadline_from req t0)
               ~cancel:s.s_req.Req.cancel enc.E.problem);
        sw_carried_clauses = 0;
        sw_carried_relations = 0;
      }

  let cancel s = Atomic.set s.s_req.Req.cancel true
  let snapshot s = snap s.s_req.Req.obs
end

let of_id : id -> (module S) = function
  | Hdpll -> (module Hdpll_e)
  | Hdpll_s -> (module Hdpll_s_e)
  | Hdpll_sp -> (module Hdpll_sp_e)
  | Hdpll_p -> (module Hdpll_p_e)
  | Bitblast -> (module Bitblast_e)
  | Lazy_cdp -> (module Lazy_cdp_e)

let all = List.map of_id all_ids

(* ---- drivers over [of_id] ---- *)

let run_instance ?(req = Req.default) id inst =
  let (module M : S) = of_id id in
  M.solve ~req (M.create ~req inst)

(* Per-bound sweep telemetry: point the heartbeat context at the
   current bound and bracket the solve with sweep.bound/sweep.result
   trace events, so a live monitor can tell which bound a long sweep
   is stuck on. *)
let sweep_with_obs obs ~total ~index ~bound f =
  if obs.Obs.enabled then begin
    Obs.set_context obs
      [
        ("bound", Json.Int bound);
        ("bound_index", Json.Int index);
        ("bounds_total", Json.Int total);
      ];
    if Obs.tracing obs then
      Obs.event obs "sweep.bound"
        [
          ("bound", Json.Int bound);
          ("index", Json.Int index);
          ("total", Json.Int total);
        ]
  end;
  let step = f () in
  if obs.Obs.enabled then begin
    if Obs.tracing obs then
      Obs.event obs "sweep.result"
        [
          ("bound", Json.Int bound);
          ("verdict", Json.Str (verdict_string step.sw_run.verdict));
          ("time_s", Json.Float step.sw_run.time);
          ("carried_clauses", Json.Int step.sw_carried_clauses);
        ];
    if index = total - 1 then Obs.set_context obs []
  end;
  step

let run_sweep ?(req = Req.default) ?semantics id source ~prop ~bounds =
  let (module M : S) = of_id id in
  let sess = M.session ~req ?semantics source ~prop in
  let nbounds = List.length bounds in
  List.mapi
    (fun index bound ->
       sweep_with_obs req.Req.obs ~total:nbounds ~index ~bound @@ fun () ->
       M.sweep_step ~req sess ~bound)
    bounds

let op_counts (inst : Bmc.instance) =
  Rtlsat_rtl.Structure.op_counts (Unroll.combo inst.Bmc.unrolled)
