open Rtlsat_constr.Types
module Vec = Rtlsat_constr.Vec

type stats = {
  mutable subsumed : int;
  mutable strengthened : int;
}

(* every atom is a half-interval bound: a lower bound (Pos, Ge) or an
   upper bound (Neg, Le) on its variable, Booleans being the one-bit
   special case *)
let is_lo = function Pos _ | Ge _ -> true | Neg _ | Le _ -> false
let bound = function Pos _ -> 1 | Neg _ -> 0 | Ge (_, k) | Le (_, k) -> k

(* a ⇒ b: the interval of [a] is included in the interval of [b] *)
let imp a b =
  atom_var a = atom_var b
  && is_lo a = is_lo b
  && if is_lo a then bound a >= bound b else bound a <= bound b

(* a ∧ b unsatisfiable: opposite bounds on one variable that cross *)
let incompatible a b =
  atom_var a = atom_var b
  && is_lo a <> is_lo b
  && if is_lo a then bound a > bound b else bound b > bound a

(* C subsumes D: every atom of C implies some atom of D, so C ⊨ D *)
let subsumes c d =
  Array.for_all (fun a -> Array.exists (fun b -> imp a b) d) c

(* cost cap: only short clauses act as subsumers/strengtheners, the
   standard occurrence-list trade-off *)
let max_subsumer_len = 10

(* the candidate variable of [c] with the fewest clause occurrences *)
let best_var n_occ c =
  let best = ref (atom_var c.(0)) in
  Array.iter
    (fun a ->
       let v = atom_var a in
       if n_occ.(v) < n_occ.(!best) then best := v)
    c;
  !best

(* the pass's own occurrence lists: var → clause indices, newest
   first, each clause once per variable *)
let occurrences s =
  let occ = Array.make s.State.nv [] and n_occ = Array.make s.State.nv 0 in
  Vec.iteri
    (fun ci c ->
       Array.iter
         (fun a ->
            let v = atom_var a in
            match occ.(v) with
            | cj :: _ when cj = ci -> ()
            | l ->
              occ.(v) <- ci :: l;
              n_occ.(v) <- n_occ.(v) + 1)
         c)
    s.State.clauses;
  (occ, n_occ)

let run s =
  if State.decision_level s <> 0 then invalid_arg "Hsimp.run: decision level";
  let st = { subsumed = 0; strengthened = 0 } in
  let n = Vec.length s.State.clauses in
  if n = 0 then st
  else begin
    let dead = Array.make n false in
    let occ, n_occ = occurrences s in
    (* 1. root-bound cleaning of non-root clauses: a clause with an
       entailed atom is permanently satisfied, a falsified atom can
       never help.  Never shrink to the empty clause — a fully
       falsified clause (possible only mid-suspension) is left for
       propagation to turn into the root conflict. *)
    for ci = 0 to n - 1 do
      if not (State.is_root_clause s ci) then begin
        let cl = Vec.get s.State.clauses ci in
        if Array.exists (fun a -> State.entailed s a) cl then begin
          dead.(ci) <- true;
          st.subsumed <- st.subsumed + 1
        end
        else begin
          let kept =
            Array.to_list cl
            |> List.filter (fun a -> not (State.falsified s a))
            |> Array.of_list
          in
          if Array.length kept < Array.length cl && Array.length kept >= 1
          then begin
            st.strengthened <-
              st.strengthened + (Array.length cl - Array.length kept);
            Vec.set s.State.clauses ci kept
          end
        end
      end
    done;
    (* 2. subsumption + self-subsuming strengthening to (bounded)
       fixpoint.  Candidates come through the occurrence lists of the
       rarest variable; occurrence entries can be stale after an
       in-place strengthening, so membership is re-checked by [imp] /
       [incompatible] on the current clause content. *)
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds < 3 do
      changed := false;
      incr rounds;
      for ci = 0 to n - 1 do
        if not dead.(ci) then begin
          let c = Vec.get s.State.clauses ci in
          let len = Array.length c in
          if len > 0 && len <= max_subsumer_len then begin
            (* backward subsumption: kill non-root clauses implied by c *)
            List.iter
              (fun di ->
                 if di < n && di <> ci && (not dead.(di))
                    && not (State.is_root_clause s di)
                 then begin
                   let d = Vec.get s.State.clauses di in
                   if subsumes c d then begin
                     dead.(di) <- true;
                     st.subsumed <- st.subsumed + 1;
                     changed := true
                   end
                 end)
              occ.(best_var n_occ c);
            (* self-subsuming strengthening: for an atom a of c, find a
               clause d with an atom b incompatible with a such that
               every atom of c either clashes with b or implies into
               d \ {b}; then c ∧ d ⊨ d \ {b} and b can be dropped *)
            Array.iter
              (fun a ->
                 List.iter
                   (fun di ->
                      if di < n && di <> ci && (not dead.(di))
                         && not (State.is_root_clause s di)
                      then begin
                        let d = Vec.get s.State.clauses di in
                        let nd = Array.length d in
                        if nd > 1 then begin
                          let ok_against b bi a' =
                            incompatible a' b
                            ||
                            (let found = ref false in
                             Array.iteri
                               (fun j b' ->
                                  if j <> bi && imp a' b' then found := true)
                               d;
                             !found)
                          in
                          let bi = ref 0 and hit = ref (-1) in
                          while !hit < 0 && !bi < nd do
                            let b = d.(!bi) in
                            if incompatible a b
                               && Array.for_all (ok_against b !bi) c
                            then hit := !bi;
                            incr bi
                          done;
                          if !hit >= 0 then begin
                            let k = !hit in
                            let d' =
                              Array.init (nd - 1) (fun j ->
                                  if j < k then d.(j) else d.(j + 1))
                            in
                            Vec.set s.State.clauses di d';
                            st.strengthened <- st.strengthened + 1;
                            changed := true
                          end
                        end
                      end)
                   occ.(atom_var a))
              c
          end
        end
      done
    done;
    (* 3. compact: drop the dead clauses and re-attach the rest *)
    if st.subsumed > 0 || st.strengthened > 0 then
      State.filter_clauses s (fun ci _ -> not dead.(ci));
    st
  end
