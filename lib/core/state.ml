open Rtlsat_constr.Types
module Vec = Rtlsat_constr.Vec
module Problem = Rtlsat_constr.Problem
module Interval = Rtlsat_interval.Interval
module Obs = Rtlsat_obs.Obs
module Hist = Rtlsat_obs.Hist

type reason = atom array option

type entry = {
  eatom : atom;
  prev : int;
  eprev : int;
  elevel : int;
  ereason : reason;
}

exception Conflict of atom array

type row = {
  coefs : int array;
  vars : int array;
  const : int;
  ncoefs : int array;
  nconst : int;
}

type t = {
  prob : Problem.t;
  mutable nv : int;
  mutable lb : int array;
  mutable ub : int array;
  mutable init_lb : int array;
  mutable init_ub : int array;
  trail : entry Vec.t;
  lim : int Vec.t;
  qlim : int Vec.t;
  mutable lo_last : int array;
  mutable hi_last : int array;
  clauses : clause Vec.t;
  root_flags : bool Vec.t;
  mutable watches : int array array;
  mutable n_watches : int array;
  recheck : int Vec.t;
  mutable n_root_clauses : int;
  mutable n_prob_clauses : int;
  mutable constrs : constr array;
  mutable rows : row array;
  mutable constr_occs : int list array;
  mutable qhead : int;
  mutable activity : float array;
  mutable var_inc : float;
  heap : Heap.t;
  mutable phase : bool array;
  mutable n_decisions : int;
  mutable n_conflicts : int;
  mutable n_propagations : int;
  mutable n_learned : int;
  mutable n_jconflicts : int;
  mutable n_final_checks : int;
  mutable n_reductions : int;
  (* interval-split decisions: per-variable shave-streak counters feed
     a candidate heap the solver bisects from.  The counters are plain
     ints updated on every word-level narrowing regardless of whether
     observability is attached, so observing a solve can never change
     it. *)
  mutable split_streak : int array;
  mutable split_dir : bool array;
  split_heap : Heap.t;
  mutable split : bool;
  mutable n_splits : int;
  mutable obs : Obs.t;
}

(* a narrowing counts toward a variable's streak when it shaves at
   most [split_max_shave] units off a domain still at least
   [split_min_width] wide; [split_streak_limit] consecutive such
   shaves nominate the variable for bisection.  The width floor is
   deliberately far below Forensics.stall_min_width: splitting must
   keep chasing the crawl down to small domains, while stall
   *reporting* only cares about the pathological wide ones. *)
let split_max_shave = 8
let split_streak_limit = 512
let split_min_width = 16

let decision_level s = Vec.length s.lim

let canonical s a =
  match a with
  | Pos _ | Neg _ -> a
  | Ge (v, k) when Problem.is_bool_var s.prob v ->
    if k >= 1 then Pos v else invalid_arg "State.canonical: trivial Boolean atom"
  | Le (v, k) when Problem.is_bool_var s.prob v ->
    if k <= 0 then Neg v else invalid_arg "State.canonical: trivial Boolean atom"
  | a -> a

let entailed s a =
  match a with
  | Pos v -> s.lb.(v) >= 1
  | Neg v -> s.ub.(v) <= 0
  | Ge (v, k) -> s.lb.(v) >= k
  | Le (v, k) -> s.ub.(v) <= k

let falsified s a =
  match a with
  | Pos v -> s.ub.(v) < 1
  | Neg v -> s.lb.(v) > 0
  | Ge (v, k) -> s.ub.(v) < k
  | Le (v, k) -> s.lb.(v) > k

let bool_value s v =
  if s.lb.(v) >= 1 then 1 else if s.ub.(v) <= 0 then 0 else -1

let dom s v = Interval.make s.lb.(v) s.ub.(v)

let watch_slot = function
  | Neg v | Le (v, _) -> 2 * v
  | Pos v | Ge (v, _) -> (2 * v) + 1

(* the bound a trail atom set: lb for Pos/Ge, ub for Neg/Le *)
let event_value = function Pos _ -> 1 | Neg _ -> 0 | Ge (_, k) | Le (_, k) -> k

let note_shave s v ~shaved ~width =
  if shaved <= split_max_shave && width >= split_min_width then begin
    let n = s.split_streak.(v) + 1 in
    s.split_streak.(v) <- n;
    if n >= split_streak_limit && s.split && not (Heap.mem s.split_heap v) then
      Heap.insert s.split_heap s.activity v
  end
  else s.split_streak.(v) <- 0

let conflict_with reason opposing =
  let expl = match reason with None -> [||] | Some r -> r in
  raise (Conflict (Array.append expl [| opposing |]))

let note_word_narrowing s v ~up ~shaved =
  let width = s.ub.(v) - s.lb.(v) in
  s.split_dir.(v) <- up;
  note_shave s v ~shaved ~width;
  if s.obs.Obs.enabled then begin
    Hist.observe s.obs.Obs.interval_width width;
    Obs.note_narrow s.obs ~var:v ~shaved ~width
  end

(* v >= k, where [a] is the atom being asserted: the trail entry keeps
   it (canonical) rather than allocating a fresh one *)
let raise_lb s v k a reason =
  if k > s.lb.(v) then begin
    if k > s.ub.(v) then conflict_with reason (canonical s (Le (v, k - 1)));
    let prev = s.lb.(v) in
    let eatom = match a with Ge _ -> canonical s a | _ -> a in
    Vec.push s.trail
      { eatom; prev; eprev = s.lo_last.(v); elevel = decision_level s; ereason = reason };
    s.lb.(v) <- k;
    s.lo_last.(v) <- Vec.length s.trail - 1;
    if Problem.is_bool_var s.prob v then s.phase.(v) <- true
    else note_word_narrowing s v ~up:true ~shaved:(k - prev)
  end

let lower_ub s v k a reason =
  if k < s.ub.(v) then begin
    if k < s.lb.(v) then conflict_with reason (canonical s (Ge (v, k + 1)));
    let prev = s.ub.(v) in
    let eatom = match a with Le _ -> canonical s a | _ -> a in
    Vec.push s.trail
      { eatom; prev; eprev = s.hi_last.(v); elevel = decision_level s; ereason = reason };
    s.ub.(v) <- k;
    s.hi_last.(v) <- Vec.length s.trail - 1;
    if Problem.is_bool_var s.prob v then s.phase.(v) <- false
    else note_word_narrowing s v ~up:false ~shaved:(prev - k)
  end

let assert_atom s a reason =
  match a with
  | Pos v -> raise_lb s v 1 a reason
  | Ge (v, k) -> raise_lb s v k a reason
  | Neg v -> lower_ub s v 0 a reason
  | Le (v, k) -> lower_ub s v k a reason

let new_level s =
  Vec.push s.lim (Vec.length s.trail);
  Vec.push s.qlim s.qhead

let backtrack_to s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.lim lvl in
    let requeue = Vec.get s.qlim lvl in
    while Vec.length s.trail > bound do
      let e = Vec.pop s.trail in
      (match e.eatom with
       | Pos v | Ge (v, _) ->
         s.lb.(v) <- e.prev;
         s.lo_last.(v) <- e.eprev
       | Neg v | Le (v, _) ->
         s.ub.(v) <- e.prev;
         s.hi_last.(v) <- e.eprev);
      let v = atom_var e.eatom in
      if Problem.is_bool_var s.prob v && bool_value s v = -1 then
        Heap.insert s.heap s.activity v
    done;
    Vec.shrink s.lim lvl;
    Vec.shrink s.qlim lvl;
    (* entries below [bound] that were propagated while a deeper level
       was open (a split decision taken with the queue pending) may
       have seen clauses satisfied by atoms just undone: replay them *)
    s.qhead <- min s.qhead (min bound requeue)
  end

(* events on one variable and direction form a chain through [eprev],
   newest first, with values moving away from the initial domain; the
   oldest event whose value still reaches [k] is the one that first
   entailed the bound *)
let rec oldest_lo s i k best =
  if i < 0 then best
  else
    let e = Vec.get s.trail i in
    if event_value e.eatom >= k then oldest_lo s e.eprev k i else best

let rec oldest_hi s i k best =
  if i < 0 then best
  else
    let e = Vec.get s.trail i in
    if event_value e.eatom <= k then oldest_hi s e.eprev k i else best

let entry_of_lo s v k =
  if s.init_lb.(v) >= k then None
  else match oldest_lo s s.lo_last.(v) k (-1) with -1 -> None | i -> Some i

let entry_of_hi s v k =
  if s.init_ub.(v) <= k then None
  else match oldest_hi s s.hi_last.(v) k (-1) with -1 -> None | i -> Some i

let entailing_entry s a =
  match a with
  | Pos v -> entry_of_lo s v 1
  | Ge (v, k) -> entry_of_lo s v k
  | Neg v -> entry_of_hi s v 0
  | Le (v, k) -> entry_of_hi s v k

(* trail index of the event that falsified [a]; -1 when the initial
   domain already does (or [a] is not falsified) *)
let falsified_at s a =
  match a with
  | Pos v -> oldest_hi s s.hi_last.(v) 0 (-1)
  | Ge (v, k) -> oldest_hi s s.hi_last.(v) (k - 1) (-1)
  | Neg v -> oldest_lo s s.lo_last.(v) 1 (-1)
  | Le (v, k) -> oldest_lo s s.lo_last.(v) (k + 1) (-1)

let lo_reason_atom s v = (Vec.get s.trail s.lo_last.(v)).eatom
let hi_reason_atom s v = (Vec.get s.trail s.hi_last.(v)).eatom

(* ---- watches ---- *)

let no_watches : int array = [||]

let push_watch s slot ci =
  let ws = s.watches.(slot) and n = s.n_watches.(slot) in
  if n = Array.length ws then begin
    let grown = Array.make (max 2 (2 * n)) 0 in
    Array.blit ws 0 grown 0 n;
    grown.(n) <- ci;
    s.watches.(slot) <- grown
  end
  else ws.(n) <- ci;
  s.n_watches.(slot) <- n + 1

let swap (c : clause) i j =
  let a = c.(i) in
  c.(i) <- c.(j);
  c.(j) <- a

(* move the most recently falsified atom of c.(from..) to [from] *)
let latest_falsified_to s (c : clause) from =
  let best = ref from and at = ref (falsified_at s c.(from)) in
  for i = from + 1 to Array.length c - 1 do
    let t = falsified_at s c.(i) in
    if t > !at then begin
      best := i;
      at := t
    end
  done;
  swap c from !best

(* Attach rule: non-falsified atoms first, then the most recently
   falsified ones, and watch positions 0 and 1.  A clause left unit or
   falsified by the current bounds (no second non-falsified atom) goes
   on [recheck], which the next propagation examines in full, since no
   future event may wake it. *)
let attach s ci =
  let c = Vec.get s.clauses ci in
  let n = Array.length c in
  if n >= 2 then begin
    let free = ref 0 in
    for i = 0 to n - 1 do
      if not (falsified s c.(i)) then begin
        swap c i !free;
        incr free
      end
    done;
    if !free < 2 then begin
      latest_falsified_to s c !free;
      if !free = 0 then latest_falsified_to s c 1;
      if not (entailed s c.(0)) then Vec.push s.recheck ci
    end;
    push_watch s (watch_slot c.(0)) ci;
    push_watch s (watch_slot c.(1)) ci
  end
  else if n = 1 && not (entailed s c.(0)) then Vec.push s.recheck ci

let add_clause s ?(root = false) cl =
  let ci = Vec.length s.clauses in
  (* a private copy: watching reorders the atoms in place, and the
     caller's array may be shared (problem clauses across parallel
     solvers, learned clauses handed to [on_learn]) *)
  Vec.push s.clauses (Array.copy cl);
  Vec.push s.root_flags root;
  if root then s.n_root_clauses <- s.n_root_clauses + 1;
  attach s ci

let is_root_clause s ci = Vec.get s.root_flags ci

let filter_clauses s keep =
  if decision_level s <> 0 then invalid_arg "State.filter_clauses: not at level 0";
  let n = Vec.length s.clauses in
  let kept = Array.init n (fun ci -> keep ci (Vec.get s.clauses ci)) in
  let j = ref 0 in
  s.n_root_clauses <- 0;
  for ci = 0 to n - 1 do
    if kept.(ci) then begin
      let root = Vec.get s.root_flags ci in
      Vec.set s.clauses !j (Vec.get s.clauses ci);
      Vec.set s.root_flags !j root;
      if root then s.n_root_clauses <- s.n_root_clauses + 1;
      incr j
    end
  done;
  Vec.shrink s.clauses !j;
  Vec.shrink s.root_flags !j;
  Array.fill s.watches 0 (Array.length s.watches) no_watches;
  Array.fill s.n_watches 0 (Array.length s.n_watches) 0;
  Vec.clear s.recheck;
  for ci = 0 to !j - 1 do
    attach s ci
  done

(* in a session, root (problem) clauses may arrive after learned ones,
   so "root" is a per-clause flag rather than a prefix of the database *)
let reduce_clauses s ~keep_recent =
  let total = Vec.length s.clauses in
  if total - s.n_root_clauses > keep_recent then begin
    let cutoff = total - keep_recent in
    filter_clauses s (fun ci cl ->
        is_root_clause s ci || ci >= cutoff || Array.length cl <= 4);
    s.n_reductions <- s.n_reductions + 1
  end

(* ---- compiled rows ---- *)

let empty_row = { coefs = [||]; vars = [||]; const = 0; ncoefs = [||]; nconst = 0 }

let flat (e : linexpr) =
  let n = List.length e.terms in
  let coefs = Array.make n 0 and vars = Array.make n 0 in
  List.iteri
    (fun i (c, v) ->
       coefs.(i) <- c;
       vars.(i) <- v)
    e.terms;
  (coefs, vars)

let compile = function
  | Lin_le e ->
    let coefs, vars = flat e in
    { empty_row with coefs; vars; const = e.const }
  | (Lin_eq e | Pred { e; _ }) as c ->
    let coefs, vars = flat e in
    {
      coefs;
      vars;
      const = e.const;
      ncoefs = Array.map ( ~- ) coefs;
      (* ¬(e ≤ 0) over the integers is -e + 1 ≤ 0 *)
      nconst = (match c with Pred _ -> -e.const + 1 | _ -> -e.const);
    }
  | Mux_w _ -> empty_row

let add_constrs s =
  let old = Array.length s.constrs in
  let n = Problem.n_constrs s.prob in
  if n > old then begin
    s.constrs <- Problem.constrs s.prob;
    s.rows <-
      Array.append s.rows (Array.init (n - old) (fun i -> compile s.constrs.(old + i)));
    for ci = old to n - 1 do
      List.iter
        (fun v -> s.constr_occs.(v) <- ci :: s.constr_occs.(v))
        (constr_vars s.constrs.(ci))
    done
  end

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nv - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  Heap.bumped s.heap s.activity v;
  Heap.bumped s.split_heap s.activity v

let decay_activities s = s.var_inc <- s.var_inc /. 0.95

let pp_atom s fmt a = pp_atom ~name:(Problem.var_name s.prob) () fmt a

let pp_trail s fmt () =
  Vec.iteri
    (fun i e ->
       Format.fprintf fmt "%4d L%d %a%s@." i e.elevel (pp_atom s) e.eatom
         (match e.ereason with None -> " (decision)" | Some _ -> ""))
    s.trail

let add_prob_clauses s =
  let ncl = Problem.n_clauses s.prob in
  for i = s.n_prob_clauses to ncl - 1 do
    add_clause s ~root:true (Problem.clause_at s.prob i)
  done;
  s.n_prob_clauses <- ncl

let create prob =
  let nv = Problem.n_vars prob in
  let lb = Array.make nv 0 and ub = Array.make nv 0 in
  for v = 0 to nv - 1 do
    let d = Problem.initial_domain prob v in
    lb.(v) <- Interval.lo d;
    ub.(v) <- Interval.hi d
  done;
  let s =
    {
      prob;
      nv;
      lb;
      ub;
      init_lb = Array.copy lb;
      init_ub = Array.copy ub;
      trail =
        Vec.create
          ~dummy:{ eatom = Pos 0; prev = 0; eprev = -1; elevel = 0; ereason = None }
          ();
      lim = Vec.create ~dummy:0 ();
      qlim = Vec.create ~dummy:0 ();
      lo_last = Array.make nv (-1);
      hi_last = Array.make nv (-1);
      clauses = Vec.create ~dummy:[||] ();
      root_flags = Vec.create ~dummy:false ();
      watches = Array.make (2 * nv) no_watches;
      n_watches = Array.make (2 * nv) 0;
      recheck = Vec.create ~dummy:0 ();
      n_root_clauses = 0;
      n_prob_clauses = 0;
      constrs = [||];
      rows = [||];
      constr_occs = Array.make nv [];
      qhead = 0;
      activity = Array.make nv 0.0;
      var_inc = 1.0;
      heap = Heap.create ();
      phase = Array.make nv false;
      n_decisions = 0;
      n_conflicts = 0;
      n_propagations = 0;
      n_learned = 0;
      n_jconflicts = 0;
      n_final_checks = 0;
      n_reductions = 0;
      split_streak = Array.make nv 0;
      split_dir = Array.make nv true;
      split_heap = Heap.create ();
      split = false;
      n_splits = 0;
      obs = Obs.disabled;
    }
  in
  add_prob_clauses s;
  add_constrs s;
  (* decision heap holds every Boolean variable *)
  for v = 0 to nv - 1 do
    if Problem.is_bool_var prob v then Heap.insert s.heap s.activity v
  done;
  s

(* session support: absorb everything appended to the problem since
   the last sync.  Variable numbering is append-only on both sides, so
   existing indices — and every learned clause and activity referring
   to them — stay valid; only the per-variable arrays reallocate, and
   only new clauses are attached and new constraints compiled.  Must
   run at decision level 0 (bounds arrays hold root values). *)
let grow s =
  if decision_level s <> 0 then invalid_arg "State.grow: not at level 0";
  let nv = Problem.n_vars s.prob in
  if nv > s.nv then begin
    let old = s.nv in
    let grown ?(scale = 1) a fill =
      let b = Array.make (scale * nv) fill in
      Array.blit a 0 b 0 (scale * old);
      b
    in
    s.lb <- grown s.lb 0;
    s.ub <- grown s.ub 0;
    for v = old to nv - 1 do
      let d = Problem.initial_domain s.prob v in
      s.lb.(v) <- Interval.lo d;
      s.ub.(v) <- Interval.hi d
    done;
    s.init_lb <- grown s.init_lb 0;
    s.init_ub <- grown s.init_ub 0;
    Array.blit s.lb old s.init_lb old (nv - old);
    Array.blit s.ub old s.init_ub old (nv - old);
    s.lo_last <- grown s.lo_last (-1);
    s.hi_last <- grown s.hi_last (-1);
    s.watches <- grown ~scale:2 s.watches no_watches;
    s.n_watches <- grown ~scale:2 s.n_watches 0;
    s.constr_occs <- grown s.constr_occs [];
    s.activity <- grown s.activity 0.0;
    s.phase <- grown s.phase false;
    s.split_streak <- grown s.split_streak 0;
    s.split_dir <- grown s.split_dir true;
    s.nv <- nv;
    for v = old to nv - 1 do
      if Problem.is_bool_var s.prob v then Heap.insert s.heap s.activity v
    done
  end;
  add_constrs s;
  add_prob_clauses s
