open Ir

(* structural key: an operator tag, then parameters and operand ids *)
type t = { dst : circuit; table : (int array, node) Hashtbl.t }

let create name = { dst = Netlist.create name; table = Hashtbl.create 1024 }
let circuit b = b.dst

let cvalue n = match n.op with Const v -> Some v | _ -> None
let is_const v n = cvalue n = Some v

let mask w = (1 lsl w) - 1

let interned b key build =
  match Hashtbl.find_opt b.table key with
  | Some n -> n
  | None ->
    let n = build b.dst in
    Hashtbl.add b.table key n;
    n

let const b ~width v = interned b [| 0; width; v |] (fun dst -> Netlist.const dst ~width v)

(* commutative operands in id order *)
let ordered a b = if a.id <= b.id then (a, b) else (b, a)

let mk_not b a =
  match (cvalue a, a.op) with
  | Some v, _ -> const b ~width:1 (1 - v)
  | None, Not inner -> inner
  | None, _ -> interned b [| 1; a.id |] (fun dst -> Netlist.not_ dst a)

(* And (tag 2, absorbing 0) and Or (tag 3, absorbing 1) *)
let mk_nary b tag ~absorbing mk ns =
  if List.exists (is_const absorbing) ns then const b ~width:1 absorbing
  else begin
    let ns =
      List.filter (fun n -> not (is_const (1 - absorbing) n)) ns
      |> List.sort_uniq (fun x y -> compare x.id y.id)
    in
    match ns with
    | [] -> const b ~width:1 (1 - absorbing)
    | [ n ] -> n
    | _ ->
      interned b
        (Array.of_list (tag :: List.map (fun n -> n.id) ns))
        (fun dst -> mk dst ns)
  end

let mk_xor b x y =
  match (cvalue x, cvalue y) with
  | Some vx, Some vy -> const b ~width:1 (vx lxor vy)
  | _ when x.id = y.id -> const b ~width:1 0
  | Some 0, None -> y
  | Some 1, None -> mk_not b y
  | None, Some 0 -> x
  | None, Some 1 -> mk_not b x
  | _ ->
    let x, y = ordered x y in
    interned b [| 4; x.id; y.id |] (fun dst -> Netlist.xor_ dst x y)

let mk_mux b sel t e =
  if t.id = e.id then t
  else begin
    match cvalue sel with
    | Some 1 -> t
    | Some 0 -> e
    | _ ->
      if t.width = 1 && is_const 1 t && is_const 0 e then sel
      else if t.width = 1 && is_const 0 t && is_const 1 e then mk_not b sel
      else
        interned b [| 5; sel.id; t.id; e.id |] (fun dst -> Netlist.mux dst ~sel ~t ~e ())
  end

let mk_add b ~wrap x y w =
  match (cvalue x, cvalue y) with
  | Some vx, Some vy ->
    let s = vx + vy in
    const b ~width:w (if wrap then s land mask w else s)
  | Some 0, None when wrap -> y
  | None, Some 0 when wrap -> x
  | _ ->
    let x, y = ordered x y in
    if wrap then interned b [| 6; x.id; y.id |] (fun dst -> Netlist.add dst x y)
    else interned b [| 7; x.id; y.id |] (fun dst -> Netlist.add_ext dst x y)

let mk_sub b x y w =
  match (cvalue x, cvalue y) with
  | Some vx, Some vy -> const b ~width:w ((vx - vy) land mask w)
  | None, Some 0 -> x
  | _ when x.id = y.id -> const b ~width:w 0
  | _ -> interned b [| 8; x.id; y.id |] (fun dst -> Netlist.sub dst x y)

let mk_mulc b k a w =
  match cvalue a with
  | Some v -> const b ~width:w (k * v)
  | None when k = 1 -> a
  | None -> interned b [| 9; k; a.id |] (fun dst -> Netlist.mul_const dst k a)

let cmp_code = function Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5

let mk_cmp b op x y =
  match (cvalue x, cvalue y) with
  | Some vx, Some vy ->
    let r =
      match op with
      | Eq -> vx = vy | Ne -> vx <> vy | Lt -> vx < vy
      | Le -> vx <= vy | Gt -> vx > vy | Ge -> vx >= vy
    in
    const b ~width:1 (if r then 1 else 0)
  | _ when x.id = y.id ->
    const b ~width:1 (match op with Eq | Le | Ge -> 1 | Ne | Lt | Gt -> 0)
  | _ -> interned b [| 10; cmp_code op; x.id; y.id |] (fun dst -> Netlist.cmp dst op x y)

let mk_concat b hi lo w =
  match (cvalue hi, cvalue lo) with
  | Some vh, Some vl -> const b ~width:w ((vh lsl lo.width) lor vl)
  | _ -> interned b [| 11; hi.id; lo.id |] (fun dst -> Netlist.concat dst ~hi ~lo)

let mk_extract b a msb lsb =
  if lsb = 0 && msb = a.width - 1 then a
  else begin
    match cvalue a with
    | Some v -> const b ~width:(msb - lsb + 1) ((v lsr lsb) land mask (msb - lsb + 1))
    | None ->
      interned b [| 12; a.id; msb; lsb |] (fun dst -> Netlist.extract dst a ~msb ~lsb)
  end

(* zero extension and shifts: fold a constant operand, otherwise hash *)
let mk_unary b tag a param w fold mk =
  match cvalue a with
  | Some v -> const b ~width:w (fold v)
  | None -> interned b [| tag; a.id; param |] (fun dst -> mk dst a)

let mk_bitwise b tag fold mk x y w =
  match (cvalue x, cvalue y) with
  | Some vx, Some vy -> const b ~width:w (fold vx vy)
  | _ when x.id = y.id -> if tag = 18 then const b ~width:w 0 else x
  | _ ->
    let x, y = ordered x y in
    interned b [| tag; x.id; y.id |] (fun dst -> mk dst x y)

let build b n img =
  let w = n.width in
  let imgs ns = Array.to_list (Array.map img ns) in
  match n.op with
  | Input | Reg _ -> invalid_arg "Opt.copy: input or register"
  | Const v -> const b ~width:w v
  | Not a -> mk_not b (img a)
  | And ns -> mk_nary b 2 ~absorbing:0 (fun dst ns -> Netlist.and_ dst ns) (imgs ns)
  | Or ns -> mk_nary b 3 ~absorbing:1 (fun dst ns -> Netlist.or_ dst ns) (imgs ns)
  | Xor (x, y) -> mk_xor b (img x) (img y)
  | Mux { sel; t; e } -> mk_mux b (img sel) (img t) (img e)
  | Add { a; b = y; wrap } -> mk_add b ~wrap (img a) (img y) w
  | Sub { a; b = y } -> mk_sub b (img a) (img y) w
  | Mul_const { k; a } -> mk_mulc b k (img a) w
  | Cmp { op; a; b = y } -> mk_cmp b op (img a) (img y)
  | Concat { hi; lo } -> mk_concat b (img hi) (img lo) w
  | Extract { a; msb; lsb } -> mk_extract b (img a) msb lsb
  | Zext a -> mk_unary b 13 (img a) w w Fun.id (fun dst a -> Netlist.zext dst a ~width:w)
  | Shl { a; k } ->
    mk_unary b 14 (img a) k w (fun v -> v lsl k) (fun dst a -> Netlist.shl dst a k)
  | Shr { a; k } ->
    mk_unary b 15 (img a) k w (fun v -> v lsr k) (fun dst a -> Netlist.shr dst a k)
  | Bitand (x, y) -> mk_bitwise b 16 ( land ) Netlist.bitand (img x) (img y) w
  | Bitor (x, y) -> mk_bitwise b 17 ( lor ) Netlist.bitor (img x) (img y) w
  | Bitxor (x, y) -> mk_bitwise b 18 ( lxor ) Netlist.bitxor (img x) (img y) w

let copy b ?name n img =
  let fresh_from = b.dst.ncount in
  let m = build b n img in
  (match name with
   | Some s when m.id >= fresh_from && cvalue m = None -> Netlist.set_name m s
   | _ -> ());
  m
