open Rtlsat_constr.Types
module Vec = Rtlsat_constr.Vec
module Obs = Rtlsat_obs.Obs

let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)
let cdiv a b = -(fdiv (-a) b)

(* ---- clauses ---- *)

let negated_rest (c : clause) ~except =
  let r = Array.make (Array.length c - 1) c.(0) in
  let j = ref 0 in
  Array.iteri
    (fun i a ->
       if i <> except then begin
         r.(!j) <- negate_atom a;
         incr j
       end)
    c;
  r

let check_clause s ci =
  let c = Vec.get s.State.clauses ci in
  if not (Array.exists (State.entailed s) c) then begin
    let free = ref (-1) and n_free = ref 0 in
    Array.iteri
      (fun i a ->
         if not (State.falsified s a) then begin
           free := i;
           incr n_free
         end)
      c;
    match !n_free with
    | 0 -> raise (State.Conflict (Array.map negate_atom c))
    | 1 -> State.assert_atom s c.(!free) (Some (negated_rest c ~except:!free))
    | _ -> ()
  end

(* Visit the clauses watching an atom of slot [sl], which the event
   just processed may have falsified.  The list is compacted in place:
   a clause whose watch moves to another slot leaves it. *)
let bcp s sl =
  let ws = s.State.watches.(sl) and n = s.State.n_watches.(sl) in
  let i = ref 0 and j = ref 0 in
  while !i < n do
    let ci = ws.(!i) in
    incr i;
    let c = Vec.get s.State.clauses ci in
    (* put the watch of this slot that is falsified, if any, at 1 *)
    let w0 = c.(0) in
    if State.watch_slot w0 = sl && State.falsified s w0 then begin
      c.(0) <- c.(1);
      c.(1) <- w0
    end;
    let w1 = c.(1) in
    if State.watch_slot w1 <> sl || (not (State.falsified s w1)) || State.entailed s c.(0)
    then begin
      ws.(!j) <- ci;
      incr j
    end
    else begin
      let len = Array.length c in
      let k = ref 2 in
      while !k < len && State.falsified s c.(!k) do incr k done;
      if !k < len then begin
        let a = c.(!k) in
        c.(1) <- a;
        c.(!k) <- w1;
        let sl' = State.watch_slot a in
        if sl' = sl then begin
          ws.(!j) <- ci;
          incr j
        end
        else State.push_watch s sl' ci
      end
      else begin
        ws.(!j) <- ci;
        incr j;
        if State.falsified s c.(0) then begin
          while !i < n do
            ws.(!j) <- ws.(!i);
            incr i;
            incr j
          done;
          s.State.n_watches.(sl) <- !j;
          raise (State.Conflict (Array.map negate_atom c))
        end
        else State.assert_atom s c.(0) (Some (negated_rest c ~except:0))
      end
    end
  done;
  s.State.n_watches.(sl) <- !j

(* ---- linear rows ---- *)

(* Overflow-checked arithmetic.  Encoded coefficients reach 2^60 and
   word bounds 2^61 - 1, so c·bound can exceed the native int range
   (observed by the differential fuzzer: a dead 61-bit shr wrapped the
   row minimum positive and turned a satisfiable instance Unsat).
   [min_int] is the overflow mark: [Checked.mul] never yields it, and a
   sum that lands on it exactly is merely treated as overflowed.  An
   evaluation that overflows skips the corresponding check or
   tightening — sound, since ICP is optional. *)

let mul c x =
  if ((c + 0x7FFF_FFFF) lor (x + 0x7FFF_FFFF)) lsr 32 = 0 then c * x
  else match Rtlsat_num.Checked.mul c x with Some p -> p | None -> min_int

let add a b =
  let r = a + b in
  if (a lxor r) land (b lxor r) < 0 then min_int else r

(* the term's contribution to the row minimum (its bound on the
   minimizing side), or to the maximum *)
let min_term s c v = mul c (if c > 0 then s.State.lb.(v) else s.State.ub.(v))
let max_term s c v = mul c (if c > 0 then s.State.ub.(v) else s.State.lb.(v))

(* Σ over the terms but [skip] (-1: none) + k; the per-term slow path
   when the full minimum overflowed but the residual might not *)
let row_min s (cs : int array) (vs : int array) k ~skip =
  let m = ref k and i = ref 0 in
  let n = Array.length cs in
  while !i < n do
    if !i <> skip then begin
      let p = min_term s cs.(!i) vs.(!i) in
      m := if p = min_int then min_int else add !m p;
      if !m = min_int then i := n
    end;
    incr i
  done;
  !m

let row_max s (cs : int array) (vs : int array) k =
  let m = ref k and i = ref 0 in
  let n = Array.length cs in
  while !i < n do
    let p = max_term s cs.(!i) vs.(!i) in
    m := if p = min_int then min_int else add !m p;
    if !m = min_int then i := n;
    incr i
  done;
  !m

(* the guard atom of a [Pred] row, packed: -1 none, 2b+1 for [Pos b],
   2b for [Neg b] *)
let no_guard = -1
let guard_atom g = if g land 1 = 1 then Pos (g lsr 1) else Neg (g lsr 1)

(* non-trivial bound atoms only: atoms already implied by the initial
   domain add noise to explanations (conflict analysis would drop them,
   but keeping explanations small is cheap here) *)
let nontrivial s ~lo v =
  if lo then s.State.lb.(v) > s.State.init_lb.(v)
  else s.State.ub.(v) < s.State.init_ub.(v)

(* the atoms fixing the row's minimum ([lo_pos]: positive coefficients
   read lower bounds) or maximum, but [skip], plus the guard *)
let row_reason s (cs : int array) (vs : int array) ~skip ~lo_pos guard =
  let n = Array.length cs in
  let count = ref (if guard = no_guard then 0 else 1) in
  for i = 0 to n - 1 do
    if i <> skip && nontrivial s ~lo:(cs.(i) > 0 = lo_pos) vs.(i) then incr count
  done;
  let r = Array.make !count (Pos 0) in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let v = vs.(i) in
    if i <> skip then begin
      let lo = cs.(i) > 0 = lo_pos in
      if nontrivial s ~lo v then begin
        r.(!j) <- (if lo then State.lo_reason_atom s v else State.hi_reason_atom s v);
        incr j
      end
    end
  done;
  if guard <> no_guard then r.(!j) <- guard_atom guard;
  r

(* propagate Σ cs.(i)·vs.(i) + k ≤ 0 *)
let propagate_row s cs vs k guard =
  let m = row_min s cs vs k ~skip:(-1) in
  if m <> min_int && m > 0 then
    raise (State.Conflict (row_reason s cs vs ~skip:(-1) ~lo_pos:true guard));
  for i = 0 to Array.length cs - 1 do
    let c = cs.(i) and v = vs.(i) in
    let rest =
      if m <> min_int then begin
        let p = min_term s c v in
        if p = min_int then min_int else add m (-p)
      end
      else row_min s cs vs k ~skip:i
    in
    if rest <> min_int then begin
      if c > 0 then begin
        (* c·v ≤ -rest *)
        let ub' = fdiv (-rest) c in
        if ub' < s.State.ub.(v) then
          State.assert_atom s (State.canonical s (Le (v, ub')))
            (Some (row_reason s cs vs ~skip:i ~lo_pos:true guard))
      end
      else begin
        (* (-c)·v ≥ rest, -c > 0 *)
        let lb' = cdiv rest (-c) in
        if lb' > s.State.lb.(v) then
          State.assert_atom s (State.canonical s (Ge (v, lb')))
            (Some (row_reason s cs vs ~skip:i ~lo_pos:true guard))
      end
    end
  done

(* ---- word multiplexers ---- *)

(* [guard] (a packed select atom) and the non-trivial bound of [x] on
   the given side *)
let guarded_reason s guard ~lo x =
  if nontrivial s ~lo x then
    [| guard_atom guard; (if lo then State.lo_reason_atom s x else State.hi_reason_atom s x) |]
  else [| guard_atom guard |]

(* z = x under the select atom [guard], both directions *)
let mux_equal s guard z x =
  let lb = s.State.lb and ub = s.State.ub in
  if lb.(x) > lb.(z) then
    State.assert_atom s
      (State.canonical s (Ge (z, lb.(x))))
      (Some (guarded_reason s guard ~lo:true x));
  if ub.(x) < ub.(z) then
    State.assert_atom s
      (State.canonical s (Le (z, ub.(x))))
      (Some (guarded_reason s guard ~lo:false x));
  if lb.(z) > lb.(x) then
    State.assert_atom s
      (State.canonical s (Ge (x, lb.(z))))
      (Some (guarded_reason s guard ~lo:true z));
  if ub.(z) < ub.(x) then
    State.assert_atom s
      (State.canonical s (Le (x, ub.(z))))
      (Some (guarded_reason s guard ~lo:false z))

(* why z cannot equal x, when their intervals are disjoint *)
let disjoint_reason s z x =
  let lb = s.State.lb and ub = s.State.ub in
  if lb.(z) > ub.(x) then
    Some [| State.canonical s (Ge (z, ub.(x) + 1)); State.canonical s (Le (x, ub.(x))) |]
  else if ub.(z) < lb.(x) then
    Some [| State.canonical s (Le (z, lb.(x) - 1)); State.canonical s (Ge (x, lb.(x))) |]
  else None

let propagate_mux s ~sel ~t ~e ~z =
  let lb = s.State.lb and ub = s.State.ub in
  match State.bool_value s sel with
  | 1 -> mux_equal s ((2 * sel) + 1) z t
  | 0 -> mux_equal s (2 * sel) z e
  | _ ->
    (* hull narrowing of z *)
    let klo = min lb.(t) lb.(e) in
    if klo > lb.(z) then begin
      let reason = [| State.canonical s (Ge (t, klo)); State.canonical s (Ge (e, klo)) |] in
      State.assert_atom s (State.canonical s (Ge (z, klo))) (Some reason)
    end;
    let khi = max ub.(t) ub.(e) in
    if khi < ub.(z) then begin
      let reason = [| State.canonical s (Le (t, khi)); State.canonical s (Le (e, khi)) |] in
      State.assert_atom s (State.canonical s (Le (z, khi))) (Some reason)
    end;
    (* select implication from disjointness *)
    (match disjoint_reason s z t with
     | Some reason -> State.assert_atom s (Neg sel) (Some reason)
     | None -> ());
    (match disjoint_reason s z e with
     | Some reason -> State.assert_atom s (Pos sel) (Some reason)
     | None -> ())

let propagate_constr s ci =
  let r = s.State.rows.(ci) in
  match s.State.constrs.(ci) with
  | Lin_le _ -> propagate_row s r.State.coefs r.State.vars r.State.const no_guard
  | Lin_eq _ ->
    propagate_row s r.State.coefs r.State.vars r.State.const no_guard;
    propagate_row s r.State.ncoefs r.State.vars r.State.nconst no_guard
  | Pred { b; _ } ->
    (match State.bool_value s b with
     | 1 -> propagate_row s r.State.coefs r.State.vars r.State.const ((2 * b) + 1)
     | 0 -> propagate_row s r.State.ncoefs r.State.vars r.State.nconst (2 * b)
     | _ ->
       let cs = r.State.coefs and vs = r.State.vars and k = r.State.const in
       let mx = row_max s cs vs k in
       if mx <> min_int && mx <= 0 then
         State.assert_atom s (Pos b)
           (Some (row_reason s cs vs ~skip:(-1) ~lo_pos:false no_guard))
       else begin
         let m = row_min s cs vs k ~skip:(-1) in
         if m <> min_int && m > 0 then
           State.assert_atom s (Neg b)
             (Some (row_reason s cs vs ~skip:(-1) ~lo_pos:true no_guard))
       end)
  | Mux_w { sel; t; e; z } -> propagate_mux s ~sel ~t ~e ~z

exception Propagation_timeout

(* forensics bracketing: wakeup count, per-constraint time, and the
   attribution target for narrowings *)
let propagate_constr_attr obs s ci =
  Obs.constr_enter obs ci;
  (match propagate_constr s ci with
   | () -> ()
   | exception e ->
     Obs.constr_exit obs ci;
     raise e);
  Obs.constr_exit obs ci

let visit_constr obs s ci =
  if obs.Obs.enabled then propagate_constr_attr obs s ci else propagate_constr s ci

let rec icp obs s = function
  | [] -> ()
  | ci :: rest ->
    visit_constr obs s ci;
    icp obs s rest

let drain_recheck s =
  while not (Vec.is_empty s.State.recheck) do
    check_clause s (Vec.pop s.State.recheck)
  done

(* the trail entry's direction: a lower-bound event falsifies the
   atoms of slot 2v, an upper-bound event those of slot 2v+1 *)
let event_slot = function
  | Pos v | Ge (v, _) -> 2 * v
  | Neg v | Le (v, _) -> (2 * v) + 1

let run ?(full = false) ?(deadline = infinity) ?cancel s =
  let obs = s.State.obs in
  (* ICP can tighten a bound by 1 per sweep over a 2^61 domain, so the
     fixpoint loop must watch the clock itself; check sparsely to keep
     the hot path free of syscalls *)
  let fuel = ref 4096 in
  try
    if full then begin
      (* every clause and constraint once: the initial root
         propagation, where unit clauses have produced no events yet *)
      Vec.clear s.State.recheck;
      Obs.span obs Obs.Bcp (fun () ->
          for ci = 0 to Vec.length s.State.clauses - 1 do
            check_clause s ci
          done);
      Obs.span obs Obs.Icp (fun () ->
          for ci = 0 to Array.length s.State.constrs - 1 do
            visit_constr obs s ci
          done)
    end
    else if not (Vec.is_empty s.State.recheck) then
      Obs.span obs Obs.Bcp (fun () -> drain_recheck s);
    (* a split candidate suspends the fixpoint: the solver takes the
       bisection decision first (the queued consequences stay on the
       trail and we resume from qhead afterwards).  With splits off the
       heap is never populated and the loop runs to fixpoint. *)
    let suspended () =
      s.State.split && not (Heap.is_empty s.State.split_heap)
    in
    while s.State.qhead < Vec.length s.State.trail && not (suspended ()) do
      decr fuel;
      if !fuel <= 0 then begin
        fuel := 4096;
        (* the w61 crawl spins here without ever returning to the
           solve loop, so heartbeats must also fire from this gate *)
        if obs.Obs.enabled then
          Obs.heartbeat_tick obs ~decisions:s.State.n_decisions
            ~conflicts:s.State.n_conflicts
            ~propagations:s.State.n_propagations ~splits:s.State.n_splits
            ~lvl:(State.decision_level s);
        if deadline < infinity && Rtlsat_obs.Mono.now () > deadline then
          raise Propagation_timeout;
        (match cancel with
         | Some c when Atomic.get c -> raise Propagation_timeout
         | _ -> ())
      end;
      let a = (Vec.get s.State.trail s.State.qhead).State.eatom in
      s.State.qhead <- s.State.qhead + 1;
      s.State.n_propagations <- s.State.n_propagations + 1;
      let sl = event_slot a and occs = s.State.constr_occs.(atom_var a) in
      (* one kernel: the obs arm only brackets the same calls *)
      if obs.Obs.enabled then begin
        Obs.span obs Obs.Bcp (fun () -> bcp s sl);
        Obs.span obs Obs.Icp (fun () -> icp obs s occs)
      end
      else begin
        bcp s sl;
        icp obs s occs
      end
    done;
    None
  with State.Conflict c ->
    if obs.Obs.enabled then Obs.forensics_reset_cur obs;
    Some c
