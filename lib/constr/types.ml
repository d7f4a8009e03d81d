type var = int

type kind = Bool | Word of Rtlsat_interval.Interval.t

type atom =
  | Pos of var
  | Neg of var
  | Ge of var * int
  | Le of var * int

type clause = atom array

type linexpr = { terms : (int * var) list; const : int }

type constr =
  | Lin_le of linexpr
  | Lin_eq of linexpr
  | Pred of { b : var; e : linexpr }
  | Mux_w of { sel : var; t : var; e : var; z : var }

let negate_atom = function
  | Pos v -> Neg v
  | Neg v -> Pos v
  | Ge (v, k) -> Le (v, k - 1)
  | Le (v, k) -> Ge (v, k + 1)

let atom_var = function Pos v | Neg v | Ge (v, _) | Le (v, _) -> v

let default_name v = "v" ^ string_of_int v

let pp_atom ?(name = default_name) () fmt = function
  | Pos v -> Format.pp_print_string fmt (name v)
  | Neg v -> Format.fprintf fmt "!%s" (name v)
  | Ge (v, k) -> Format.fprintf fmt "[%s>=%d]" (name v) k
  | Le (v, k) -> Format.fprintf fmt "[%s<=%d]" (name v) k

let pp_clause ?(name = default_name) () fmt cl =
  Format.fprintf fmt "(";
  Array.iteri
    (fun i a ->
       if i > 0 then Format.fprintf fmt " | ";
       pp_atom ~name () fmt a)
    cl;
  Format.fprintf fmt ")"

let pp_linexpr ?(name = default_name) () fmt e =
  let first = ref true in
  let term (c, v) =
    if c <> 0 then begin
      if !first then begin
        if c = -1 then Format.fprintf fmt "-"
        else if c <> 1 then Format.fprintf fmt "%d*" c
      end
      else if c > 0 then begin
        if c = 1 then Format.fprintf fmt " + " else Format.fprintf fmt " + %d*" c
      end
      else begin
        if c = -1 then Format.fprintf fmt " - " else Format.fprintf fmt " - %d*" (-c)
      end;
      Format.pp_print_string fmt (name v);
      first := false
    end
  in
  List.iter term e.terms;
  if !first then Format.fprintf fmt "%d" e.const
  else if e.const > 0 then Format.fprintf fmt " + %d" e.const
  else if e.const < 0 then Format.fprintf fmt " - %d" (-e.const)

let pp_constr ?(name = default_name) () fmt = function
  | Lin_le e -> Format.fprintf fmt "%a <= 0" (pp_linexpr ~name ()) e
  | Lin_eq e -> Format.fprintf fmt "%a = 0" (pp_linexpr ~name ()) e
  | Pred { b; e } ->
    Format.fprintf fmt "%s <-> (%a <= 0)" (name b) (pp_linexpr ~name ()) e
  | Mux_w { sel; t; e; z } ->
    Format.fprintf fmt "%s = %s ? %s : %s" (name z) (name sel) (name t) (name e)

let le_zero e = (e.terms, e.const)

let lin_of_terms terms const =
  let tbl = Hashtbl.create 8 in
  let add (c, v) = Hashtbl.replace tbl v (c + Option.value ~default:0 (Hashtbl.find_opt tbl v)) in
  List.iter add terms;
  let merged =
    Hashtbl.fold (fun v c acc -> if c = 0 then acc else (c, v) :: acc) tbl []
  in
  let sorted = List.sort (fun (_, v1) (_, v2) -> compare v1 v2) merged in
  { terms = sorted; const }

let lin_neg e =
  { terms = List.map (fun (c, v) -> (-c, v)) e.terms; const = -e.const }

let lin_add a b = lin_of_terms (a.terms @ b.terms) (a.const + b.const)
let lin_sub a b = lin_add a (lin_neg b)

let constr_vars c =
  let vars =
    match c with
    | Lin_le e | Lin_eq e -> List.map snd e.terms
    | Pred { b; e } -> b :: List.map snd e.terms
    | Mux_w { sel; t; e; z } -> [ sel; t; e; z ]
  in
  List.sort_uniq Int.compare vars

let eval_linexpr env e =
  List.fold_left (fun acc (c, v) -> acc + (c * env v)) e.const e.terms

let eval_atom env = function
  | Pos v -> env v = 1
  | Neg v -> env v = 0
  | Ge (v, k) -> env v >= k
  | Le (v, k) -> env v <= k

let eval_clause env cl = Array.exists (eval_atom env) cl

let eval_constr env = function
  | Lin_le e -> eval_linexpr env e <= 0
  | Lin_eq e -> eval_linexpr env e = 0
  | Pred { b; e } -> (env b = 1) = (eval_linexpr env e <= 0)
  | Mux_w { sel; t; e; z } -> env z = (if env sel = 1 then env t else env e)
