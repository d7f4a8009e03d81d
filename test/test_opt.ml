(* Tests for the folding, hash-consing constructor that builds every
   unrolled frame: individual rewrite rules, cone restriction, sharing,
   and behaviour preservation over the benchmark suite and random
   circuits, exercised through [Unroll]. *)

module Ir = Rtlsat_rtl.Ir
module N = Rtlsat_rtl.Netlist
module Sim = Rtlsat_rtl.Sim
module Opt = Rtlsat_rtl.Opt
module Unroll = Rtlsat_bmc.Unroll
module Registry = Rtlsat_itc99.Registry

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let const_value n = match n.Ir.op with Ir.Const v -> Some v | _ -> None

(* one frame of the cone of every output, through the constructor *)
let unroll_outputs c = Unroll.unroll c ~roots:(List.map snd c.Ir.outputs) ~frames:1

let frame0 c =
  let u = unroll_outputs c in
  fun n -> Unroll.node_at u n 0

let test_constant_folding () =
  let c = N.create "fold" in
  let k3 = N.const c ~width:4 3 in
  let k5 = N.const c ~width:4 5 in
  let sum = N.add c k3 k5 in
  let prod = N.mul_const c 3 k5 in
  let cmp = N.lt c k3 k5 in
  let cat = N.concat c ~hi:k3 ~lo:k5 in
  let ex = N.extract c cat ~msb:5 ~lsb:2 in
  N.output c "sum" sum;
  N.output c "prod" prod;
  N.output c "cmp" cmp;
  N.output c "ex" ex;
  let fwd = frame0 c in
  Alcotest.(check (option int)) "3+5" (Some 8) (const_value (fwd sum));
  Alcotest.(check (option int)) "3*5" (Some 15) (const_value (fwd prod));
  Alcotest.(check (option int)) "3<5" (Some 1) (const_value (fwd cmp));
  Alcotest.(check (option int)) "extract" (Some ((3 lsl 4 lor 5) lsr 2 land 15))
    (const_value (fwd ex))

let test_identities () =
  let c = N.create "ids" in
  let a = N.input c ~name:"a" 1 in
  let w = N.input c ~name:"w" 4 in
  let zero1 = N.cfalse c in
  let one1 = N.ctrue c in
  let zero4 = N.const c ~width:4 0 in
  let and0 = N.and_ c [ a; zero1 ] in
  let and1 = N.and_ c [ a; one1 ] in
  let or1 = N.or_ c [ a; one1 ] in
  let xorself = N.xor_ c a a in
  let notnot = N.not_ c (N.not_ c a) in
  let muxsame = N.mux c ~sel:a ~t:w ~e:w () in
  let addz = N.add c w zero4 in
  let subself = N.sub c w w in
  let eqself = N.eq c w w in
  let mux10 = N.mux c ~sel:a ~t:one1 ~e:zero1 () in
  List.iteri (fun i n -> N.output c (string_of_int i) n)
    [ and0; and1; or1; xorself; notnot; muxsame; addz; subself; eqself; mux10 ];
  let fwd = frame0 c in
  Alcotest.(check (option int)) "a&0" (Some 0) (const_value (fwd and0));
  check_bool "a&1 = a" true (fwd and1 == fwd a);
  Alcotest.(check (option int)) "a|1" (Some 1) (const_value (fwd or1));
  Alcotest.(check (option int)) "a^a" (Some 0) (const_value (fwd xorself));
  check_bool "!!a = a" true (fwd notnot == fwd a);
  check_bool "mux s w w = w" true (fwd muxsame == fwd w);
  check_bool "w+0 = w" true (fwd addz == fwd w);
  Alcotest.(check (option int)) "w-w" (Some 0) (const_value (fwd subself));
  Alcotest.(check (option int)) "w=w" (Some 1) (const_value (fwd eqself));
  check_bool "mux a 1 0 = a" true (fwd mux10 == fwd a)

let test_structural_hashing () =
  let c = N.create "cse" in
  let x = N.input c ~name:"x" 4 in
  let y = N.input c ~name:"y" 4 in
  let s1 = N.add c x y in
  let s2 = N.add c x y in
  let s3 = N.add c y x in (* commutative: shared too *)
  N.output c "a" s1;
  N.output c "b" s2;
  N.output c "c" s3;
  let fwd = frame0 c in
  check_bool "s1 == s2" true (fwd s1 == fwd s2);
  check_bool "s1 == s3 (commuted)" true (fwd s1 == fwd s3)

let test_dead_code () =
  let c = N.create "dead" in
  let x = N.input c ~name:"x" 4 in
  let live = N.inc c x in
  let _dead1 = N.sub c x x in
  let _dead2 = N.lt c x live in
  N.output c "live" live;
  (* input, const 1, add — the two nodes outside the cone are not copied *)
  check_int "only live nodes" 3 (Unroll.combo (unroll_outputs c)).Ir.ncount

let test_unroll_shrink () =
  (* unrolled benchmark circuits shrink substantially against a copy of
     every source node per frame: frame-0 resets constant-fold forward
     and the cone drops the other properties' logic *)
  let inst = Registry.instance ~circuit:"b13" ~prop:"1" ~bound:20 in
  let before = 20 * inst.Rtlsat_bmc.Bmc.source.Ir.ncount in
  let after = (Unroll.combo inst.Rtlsat_bmc.Bmc.unrolled).Ir.ncount in
  check_bool
    (Printf.sprintf "shrinks (%d -> %d)" before after)
    true
    (after * 10 < before * 9)

let random_trace rng c cycles =
  List.init cycles (fun _ ->
      List.map
        (fun n -> (Ir.node_name n, Random.State.int rng (Ir.max_value n + 1)))
        (Ir.inputs c))

let test_equivalence_on_benchmarks () =
  (* every property of every benchmark, 40 frames: the unrolled cone
     under the same inputs agrees with the sequential simulator *)
  let rng = Random.State.make [| 2026 |] in
  let cycles = 40 in
  List.iter
    (fun name ->
       let c, props = Registry.build name in
       let u = Unroll.unroll c ~roots:(List.map snd props) ~frames:cycles in
       let combo = Unroll.combo u in
       let named = random_trace rng c cycles in
       let t1 =
         Sim.run c
           ~inputs:
             (List.map (List.map (fun (nm, v) -> (N.find_input c nm, v))) named)
       in
       let t2 =
         Sim.eval combo (Sim.initial_state combo)
           ~inputs:
             (List.concat
                (List.mapi
                   (fun f step ->
                      List.map
                        (fun (nm, v) -> (Unroll.input_at u (N.find_input c nm) f, v))
                        step)
                   named))
       in
       List.iteri
         (fun f v1 ->
            List.iter
              (fun (pn, p) ->
                 check_int
                   (Printf.sprintf "%s prop %s cycle %d" name pn f)
                   (Sim.value v1 p)
                   (Sim.value t2 (Unroll.node_at u p f)))
              props)
         t1)
    Registry.circuits

let prop_equivalence_random =
  QCheck.Test.make ~name:"optimized = original on random circuits" ~count:100
    QCheck.(triple (int_bound 100_000) (int_bound 15) (int_bound 15))
    (fun (seed, av, bv) ->
       let rng = Random.State.make [| seed |] in
       let c = N.create "rand" in
       let a = N.input c ~name:"a" 4 and b = N.input c ~name:"b" 4 in
       let words = ref [ a; b; N.const c ~width:4 0; N.const c ~width:4 9 ] in
       let bools = ref [ N.ctrue c ] in
       let pick l = List.nth l (Random.State.int rng (List.length l)) in
       for _ = 1 to 18 do
         match Random.State.int rng 9 with
         | 0 -> words := N.add c (pick !words) (pick !words) :: !words
         | 1 -> words := N.sub c (pick !words) (pick !words) :: !words
         | 2 ->
           bools :=
             N.cmp c (pick [ Ir.Eq; Ir.Lt; Ir.Ge; Ir.Ne ]) (pick !words) (pick !words)
             :: !bools
         | 3 ->
           words := N.mux c ~sel:(pick !bools) ~t:(pick !words) ~e:(pick !words) () :: !words
         | 4 -> bools := N.not_ c (pick !bools) :: !bools
         | 5 -> bools := N.and_ c [ pick !bools; pick !bools ] :: !bools
         | 6 -> bools := N.xor_ c (pick !bools) (pick !bools) :: !bools
         | 7 -> words := N.bitxor c (pick !words) (pick !words) :: !words
         | _ -> words := N.bitand c (pick !words) (pick !words) :: !words
       done;
       let o = pick !words in
       N.output c "o" o;
       let u = unroll_outputs c in
       let combo = Unroll.combo u in
       let v1 =
         Sim.value (Sim.eval c (Sim.initial_state c) ~inputs:[ (a, av); (b, bv) ]) o
       in
       let inputs2 = [ (Unroll.input_at u a 0, av); (Unroll.input_at u b 0, bv) ] in
       let v2 =
         Sim.value (Sim.eval combo (Sim.initial_state combo) ~inputs:inputs2)
           (Unroll.node_at u o 0)
       in
       v1 = v2 && combo.Ir.ncount <= c.Ir.ncount)

let test_idempotent () =
  (* hashing the same frame twice adds no nodes and returns the same
     images (registers are cut into inputs, as in one unrolled frame) *)
  List.iter
    (fun name ->
       let c, _ = Registry.build name in
       let b = Opt.create name in
       let img = Hashtbl.create 256 in
       let image n = Hashtbl.find img n.Ir.id in
       List.iter
         (fun n ->
            Hashtbl.replace img n.Ir.id
              (match n.Ir.op with
               | Ir.Input | Ir.Reg _ -> N.input (Opt.circuit b) n.Ir.width
               | _ -> Opt.copy b n image))
         (Ir.nodes c);
       let once = (Opt.circuit b).Ir.ncount in
       List.iter
         (fun n ->
            match n.Ir.op with
            | Ir.Input | Ir.Reg _ -> ()
            | _ ->
              check_bool (name ^ " same image") true (Opt.copy b n image == image n))
         (Ir.nodes c);
       check_int (name ^ " second pass adds no nodes") once (Opt.circuit b).Ir.ncount)
    Registry.circuits

let qsuite = Qutil.qsuite

let () =
  Alcotest.run "opt"
    [
      ( "rules",
        [
          Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "identities" `Quick test_identities;
          Alcotest.test_case "structural hashing" `Quick test_structural_hashing;
          Alcotest.test_case "dead code removal" `Quick test_dead_code;
        ] );
      ( "effect",
        [
          Alcotest.test_case "unrolled b13 shrinks" `Quick test_unroll_shrink;
          Alcotest.test_case "benchmark equivalence" `Quick test_equivalence_on_benchmarks;
          Alcotest.test_case "idempotent" `Quick test_idempotent;
        ] );
      qsuite "props" [ prop_equivalence_random ];
    ]
