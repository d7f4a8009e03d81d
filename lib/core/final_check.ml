open Rtlsat_constr.Types
module Box = Rtlsat_fme.Boxsearch
module Omega = Rtlsat_fme.Omega
module Obs = Rtlsat_obs.Obs

type outcome =
  | Model of int array
  | Conflict_atoms of atom array
  | Resource_out

(* active inequalities under the current Boolean assignment, read off
   the compiled rows: each is (terms, const, guard atoms) *)
let active_lins s =
  let out = ref [] in
  let push cs (vs : int array) const guards =
    out := (List.init (Array.length cs) (fun i -> (cs.(i), vs.(i))), const, guards) :: !out
  in
  Array.iteri
    (fun ci c ->
       let r = s.State.rows.(ci) in
       match c with
       | Lin_le _ -> push r.State.coefs r.State.vars r.State.const []
       | Lin_eq _ ->
         push r.State.coefs r.State.vars r.State.const [];
         push r.State.ncoefs r.State.vars r.State.nconst []
       | Pred { b; _ } ->
         (match State.bool_value s b with
          | 1 -> push r.State.coefs r.State.vars r.State.const [ Pos b ]
          | 0 -> push r.State.ncoefs r.State.vars r.State.nconst [ Neg b ]
          | _ -> invalid_arg "Final_check: unassigned predicate guard")
       | Mux_w { sel; t; e; z } ->
         let chosen, guard =
           match State.bool_value s sel with
           | 1 -> (t, Pos sel)
           | 0 -> (e, Neg sel)
           | _ -> invalid_arg "Final_check: unassigned mux select"
         in
         List.iter
           (fun (eq : linexpr) -> out := (eq.terms, eq.const, [ guard ]) :: !out)
           [ lin_of_terms [ (1, z); (-1, chosen) ] 0; lin_of_terms [ (-1, z); (1, chosen) ] 0 ])
    s.State.constrs;
  List.rev !out

(* union-find over variables *)
let find parent v =
  let rec go v = if parent.(v) = v then v else go parent.(v) in
  let root = go v in
  let rec compress v =
    if parent.(v) <> root then begin
      let next = parent.(v) in
      parent.(v) <- root;
      compress next
    end
  in
  compress v;
  root

let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra <> rb then parent.(ra) <- rb

let nontrivial_bound_atoms s v =
  let out = ref [] in
  if s.State.lb.(v) > s.State.init_lb.(v) then
    out := State.canonical s (Ge (v, s.State.lb.(v))) :: !out;
  if s.State.ub.(v) < s.State.init_ub.(v) then
    out := State.canonical s (Le (v, s.State.ub.(v))) :: !out;
  !out

let check ?max_nodes s obs =
  let lb = s.State.lb and ub = s.State.ub in
  let fixed v = lb.(v) = ub.(v) in
  (* substitute fixed variables; keep the fixed vars for explanations.
     A substitution whose product or sum would overflow keeps the
     variable free instead (its point bounds carry the value exactly
     into the Bigint-based oracle). *)
  let substituted =
    List.map
      (fun (terms, const, guards) ->
         let free, const, fixed_vars =
           List.fold_left
             (fun (free, const, fv) (c, v) ->
                let substituted_const =
                  if fixed v then
                    match Rtlsat_num.Checked.mul c lb.(v) with
                    | Some p -> Rtlsat_num.Checked.add const p
                    | None -> None
                  else None
                in
                match substituted_const with
                | Some const -> (free, const, v :: fv)
                | None -> ((c, v) :: free, const, fv))
             ([], const, []) terms
         in
         (free, const, guards, fixed_vars))
      (active_lins s)
  in
  (* constant rows are bounds-consistent by fixpoint; ignore them.
     group the rest into connected components of free variables *)
  let rows = List.filter (fun (free, _, _, _) -> free <> []) substituted in
  let parent = Array.init s.State.nv (fun v -> v) in
  List.iter
    (fun (free, _, _, _) ->
       match free with
       | (_, v0) :: rest -> List.iter (fun (_, v) -> union parent v0 v) rest
       | [] -> ())
    rows;
  (* model: fixed vars at their value; free vars filled per component *)
  let model = Array.init s.State.nv (fun v -> lb.(v)) in
  let components : (int, (((int * int) list * int * atom list * int list) list)) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun ((free, _, _, _) as row) ->
       let root = find parent (snd (List.hd free)) in
       Hashtbl.replace components root
         (row :: Option.value ~default:[] (Hashtbl.find_opt components root)))
    rows;
  let exception Conflict_found of atom array in
  let exception Out_of_resource in
  try
    (* exact re-check of the constant rows: ICP skips overflowing
       evaluations, so the bounds fixpoint no longer guarantees their
       consistency (their substituted constant is exact by
       construction — overflowing substitutions stay free) *)
    List.iter
      (fun (free, const, guards, fixed_vars) ->
         if free = [] && const > 0 then begin
           let atoms = ref guards in
           List.iter
             (fun v -> atoms := nontrivial_bound_atoms s v @ !atoms)
             fixed_vars;
           raise (Conflict_found (Array.of_list (List.sort_uniq compare !atoms)))
         end)
      substituted;
    Hashtbl.iter
      (fun root rows ->
         ignore root;
         (* compact variable indices for this component *)
         let index = Hashtbl.create 16 in
         let back = ref [] in
         let idx_of v =
           match Hashtbl.find_opt index v with
           | Some i -> i
           | None ->
             let i = Hashtbl.length index in
             Hashtbl.replace index v i;
             back := v :: !back;
             i
         in
         let lins =
           List.map
             (fun (free, const, _, _) ->
                Box.lin (List.map (fun (c, v) -> (c, idx_of v)) free) const)
             rows
         in
         let back = Array.of_list (List.rev !back) in
         let bounds = Array.map (fun v -> (lb.(v), ub.(v))) back in
         match Omega.decide ~obs ?max_nodes ~bounds lins with
         | Omega.Sat p -> Array.iteri (fun i v -> model.(v) <- p.(i)) back
         | Omega.Unknown -> raise Out_of_resource
         | Omega.Unsat core ->
           let atoms = ref [] in
           let row_arr = Array.of_list rows in
           List.iter
             (fun tag ->
                if tag >= 0 then begin
                  let _, _, guards, fixed_vars = row_arr.(tag) in
                  List.iter (fun a -> atoms := a :: !atoms) guards;
                  List.iter
                    (fun v -> atoms := nontrivial_bound_atoms s v @ !atoms)
                    fixed_vars
                end
                else begin
                  let v = back.((-tag) - 1) in
                  atoms := nontrivial_bound_atoms s v @ !atoms
                end)
             core;
           raise (Conflict_found (Array.of_list (List.sort_uniq compare !atoms))))
      components;
    Model model
  with
  | Conflict_found atoms -> Conflict_atoms atoms
  | Out_of_resource -> Resource_out

let run ?max_nodes s =
  s.State.n_final_checks <- s.State.n_final_checks + 1;
  let obs = s.State.obs in
  let outcome = Obs.span obs Obs.Final_check (fun () -> check ?max_nodes s obs) in
  if Obs.tracing obs then
    Obs.event obs "final_check"
      [
        ( "result",
          Rtlsat_obs.Json.Str
            (match outcome with
             | Model _ -> "model"
             | Conflict_atoms _ -> "conflict"
             | Resource_out -> "resource_out") );
      ];
  outcome
