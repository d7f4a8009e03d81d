open Rtlsat_rtl

type semantics = Final | Any | Never

type instance = {
  source : Ir.circuit;
  prop : Ir.node;
  bound : int;
  semantics : semantics;
  unrolled : Unroll.t;
  violation : Ir.node;
}

(* prefix sharing: repeated [make] on the same physical circuit and
   property reuses one unroll, extending it frame-incrementally when a
   larger bound comes along — a bound ladder over one (design, prop)
   unrolls frame 0 exactly once.  Keyed by physical circuit equality
   (a rebuilt, structurally identical circuit gets a fresh unroll, so
   callers that mutate their source are unaffected) AND by property,
   because an unroll copies only its property's cone, and encoders
   encode every node present: sharing one unroll across properties
   would make each instance's encoded problem absorb the cone and
   violation logic of whatever ran before it, perturbing variable
   numbering and hence search order between a batch run and a solo
   run of the same instance.  Small cap so fuzzing's thousands of
   throwaway circuits don't pile up. *)
let unroll_cache : ((Ir.circuit * int) * Unroll.t) list ref = ref []
let unroll_cache_cap = 4

(* [make] must be idempotent on a shared unroll: repeated instances of
   the same (prop, bound, semantics) reuse one violation node instead
   of appending a fresh copy to the shared combo each time — otherwise
   two textually identical instances encode different circuits and
   solve nondeterministically.  Keyed per unroll, so evicting a cache
   entry drops its memo with it. *)
let violation_memo : (Unroll.t * (int * int * semantics, Ir.node) Hashtbl.t) list ref =
  ref []

let violation_memo_for unrolled =
  match List.find_opt (fun (u, _) -> u == unrolled) !violation_memo with
  | Some (_, tbl) -> tbl
  | None ->
    let tbl = Hashtbl.create 8 in
    let keep =
      List.filter
        (fun (u, _) -> List.exists (fun (_, u') -> u == u') !unroll_cache)
        !violation_memo
    in
    violation_memo := (unrolled, tbl) :: keep;
    tbl

let shared_unroll source ~prop ~frames =
  let key = (source, prop.Ir.id) in
  let hit (c, p) = c == source && p = prop.Ir.id in
  match List.find_opt (fun (k, _) -> hit k) !unroll_cache with
  | Some (_, u) when Unroll.frames u <= frames ->
    if Unroll.frames u < frames then Unroll.extend u ~frames;
    u
  | Some _ ->
    (* the cached unroll is deeper than this bound: encoders encode
       every frame present, so handing it out would make this
       instance pay for frames it never constrains.  An exact-depth
       private unroll keeps the problem at the instance's own size;
       the deeper entry stays cached for its own ladder. *)
    Unroll.unroll source ~roots:[ prop ] ~frames
  | None ->
    let u = Unroll.unroll source ~roots:[ prop ] ~frames in
    let keep = List.filteri (fun i _ -> i < unroll_cache_cap - 1) !unroll_cache in
    unroll_cache := (key, u) :: keep;
    u

let violation_node unrolled ~prop ~bound ~semantics ~name =
  let combo = Unroll.combo unrolled in
  match semantics with
  | Final -> Netlist.not_ combo (Unroll.node_at unrolled prop (bound - 1))
  | Any ->
    let frames =
      List.init bound (fun f -> Netlist.not_ combo (Unroll.node_at unrolled prop f))
    in
    (match frames with
     | [ one ] -> one
     | many -> Netlist.or_ combo ~name many)
  | Never ->
    let frames =
      List.init bound (fun f -> Netlist.not_ combo (Unroll.node_at unrolled prop f))
    in
    (match frames with
     | [ one ] -> one
     | many -> Netlist.and_ combo ~name many)

let make source ~prop ~bound ?(semantics = Final) () =
  if not (Ir.is_bool prop) then invalid_arg "Bmc.make: property must be Boolean";
  let unrolled = shared_unroll source ~prop ~frames:bound in
  let memo = violation_memo_for unrolled in
  let key = (prop.Ir.id, bound, semantics) in
  let violation =
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
      let v = violation_node unrolled ~prop ~bound ~semantics ~name:"violation" in
      Netlist.output (Unroll.combo unrolled)
        (Printf.sprintf "violation@%d" bound)
        v;
      Hashtbl.add memo key v;
      v
  in
  { source; prop; bound; semantics; unrolled; violation }

(* ---- bound sweeps: one unroll, one violation selector per bound ----

   The incremental-session workload: a design checked at a list of
   bounds shares a single frame-incrementally extended unroll, and
   each bound's violation objective is a distinct node of the same
   combinational circuit.  Solvers pose the per-bound question as the
   assumption literal of that node instead of baking a unit clause in,
   so one session answers every bound. *)

type sweep = {
  sw_source : Ir.circuit;
  sw_prop : Ir.node;
  sw_semantics : semantics;
  sw_unrolled : Unroll.t;
  sw_selectors : (int, Ir.node) Hashtbl.t;
}

let sweep source ~prop ?(semantics = Final) () =
  if not (Ir.is_bool prop) then invalid_arg "Bmc.sweep: property must be Boolean";
  {
    sw_source = source;
    sw_prop = prop;
    sw_semantics = semantics;
    sw_unrolled = Unroll.unroll source ~roots:[ prop ] ~frames:1;
    sw_selectors = Hashtbl.create 16;
  }

let sweep_unrolled sw = sw.sw_unrolled

let sweep_violation sw ~bound =
  if bound < 1 then invalid_arg "Bmc.sweep_violation: bound < 1";
  match Hashtbl.find_opt sw.sw_selectors bound with
  | Some v -> v
  | None ->
    Unroll.extend sw.sw_unrolled ~frames:bound;
    let v =
      violation_node sw.sw_unrolled ~prop:sw.sw_prop ~bound
        ~semantics:sw.sw_semantics
        ~name:(Printf.sprintf "violation@%d" bound)
    in
    Netlist.output
      (Unroll.combo sw.sw_unrolled)
      (Printf.sprintf "violation@%d" bound)
      v;
    Hashtbl.replace sw.sw_selectors bound v;
    v

let sweep_instance sw ~bound =
  let violation = sweep_violation sw ~bound in
  {
    source = sw.sw_source;
    prop = sw.sw_prop;
    bound;
    semantics = sw.sw_semantics;
    unrolled = sw.sw_unrolled;
    violation;
  }

let witness_ok inst value =
  (* extract per-frame input valuations from the unrolled model *)
  let inputs_at f =
    List.map
      (fun n -> (n, value (Unroll.input_at inst.unrolled n f)))
      (Ir.inputs inst.source)
  in
  let traces =
    Array.of_list (Sim.run inst.source ~inputs:(List.init inst.bound inputs_at))
  in
  let prop_at f = Sim.value traces.(f) inst.prop in
  match inst.semantics with
  | Final -> prop_at (inst.bound - 1) = 0
  | Any ->
    let rec any f = f < inst.bound && (prop_at f = 0 || any (f + 1)) in
    any 0
  | Never ->
    let rec all f = f >= inst.bound || (prop_at f = 0 && all (f + 1)) in
    all 0
