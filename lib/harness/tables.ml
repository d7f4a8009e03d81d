module Registry = Rtlsat_itc99.Registry
module Obs = Rtlsat_obs.Obs
module Json = Rtlsat_obs.Json

type scale = [ `Scaled | `Full ]

let scale_name = function `Scaled -> "scaled" | `Full -> "full"

type row = {
  section : string;
  instance : string;
  arm : string;
  run : Engine.run;
  extra : (string * Json.t) list;
}

type family = string * (?timeout:float -> ?metrics:bool -> scale -> row list)

(* fresh per-run obs handle when metrics collection is requested *)
let run_obs metrics = if metrics then Obs.create () else Obs.disabled

(* fresh request per engine run: a private obs handle so [run.metrics]
   snapshots stay per-run *)
let run_req ?learn_threshold ?(simplify = true) ~timeout metrics =
  Req.make ~timeout ?learn_threshold ~simplify ~obs:(run_obs metrics) ()

let default_timeout = function `Full -> 1200.0 | `Scaled -> 20.0

let row section instance ?(extra = []) arm run =
  { section; instance; arm; run; extra }

(* ---- Table 1 (§3.1): predicate learning analysis ---- *)

let table1_instances = function
  | `Full ->
    [
      ("b01", "1", 10); ("b01", "1", 20);
      ("b02", "1", 10); ("b02", "1", 20);
      ("b04", "1", 20);
      ("b13", "5", 10); ("b13", "1", 10);
      ("b13", "5", 20); ("b13", "1", 20);
      ("b13", "5", 30); ("b13", "1", 30);
      ("b13", "5", 50); ("b13", "1", 50);
      ("b13", "5", 100); ("b13", "1", 100);
      ("b13", "5", 200); ("b13", "1", 200);
      ("b13", "1", 300);
    ]
  | `Scaled ->
    [
      ("b01", "1", 10); ("b01", "1", 20);
      ("b02", "1", 10); ("b02", "1", 20);
      ("b04", "1", 20);
      ("b13", "5", 10); ("b13", "1", 10);
      ("b13", "5", 20); ("b13", "1", 20);
      ("b13", "5", 30); ("b13", "1", 30);
    ]

(* the paper's Table 1 threshold: 2500 learned relations *)
let t1_threshold = 2500

let run_table1 ?timeout ?(metrics = false) scale =
  let timeout = Option.value timeout ~default:(default_timeout scale) in
  List.concat_map
    (fun (circuit, prop, bound) ->
       let mk () = Registry.instance ~circuit ~prop ~bound in
       let row = row "table1" (Registry.instance_name ~circuit ~prop ~bound) in
       [
         row "hdpll"
           (Engine.run_instance ~req:(run_req ~timeout metrics) Engine.Hdpll
              (mk ()));
         row "hdpll+p"
           (Engine.run_instance
              ~req:(run_req ~learn_threshold:t1_threshold ~timeout metrics)
              Engine.Hdpll_p (mk ()));
       ])
    (table1_instances scale)

(* ---- Table 2 (§5): structural decision strategy ---- *)

let table2_instances = function
  | `Full ->
    [
      ("b01", "1", 50); ("b01", "1", 100);
      ("b02", "1", 50); ("b02", "1", 100);
      ("b04", "1", 50); ("b04", "1", 100);
      ("b13", "40", 13);
      ("b13", "1", 50); ("b13", "2", 50); ("b13", "3", 50); ("b13", "5", 50);
      ("b13", "8", 50);
      ("b13", "1", 100); ("b13", "2", 100); ("b13", "3", 100); ("b13", "5", 100);
      ("b13", "8", 100);
      ("b13", "1", 200); ("b13", "2", 200); ("b13", "3", 200); ("b13", "5", 200);
      ("b13", "8", 200);
      ("b13", "1", 300); ("b13", "2", 300); ("b13", "3", 300); ("b13", "5", 300);
      ("b13", "8", 300);
      ("b13", "1", 400); ("b13", "2", 400); ("b13", "3", 400); ("b13", "5", 400);
      ("b13", "8", 400);
    ]
  | `Scaled ->
    [
      ("b01", "1", 50); ("b01", "1", 100);
      ("b02", "1", 50); ("b02", "1", 100);
      ("b04", "1", 50);
      ("b13", "40", 13);
      ("b13", "1", 50); ("b13", "2", 50); ("b13", "3", 50); ("b13", "5", 50);
      ("b13", "8", 50);
    ]

(* one row per engine over an instance, its operator counts (Table 2's
   columns 3-4) as extras *)
let run_case ~timeout ~metrics ~section ~engines ~label mk =
  let arith, boolean = Engine.op_counts (mk ()) in
  let extra =
    [ ("arith_ops", Json.Int arith); ("bool_ops", Json.Int boolean) ]
  in
  List.map
    (fun e ->
       row section label ~extra (Engine.name_of e)
         (Engine.run_instance ~req:(run_req ~timeout metrics) e (mk ())))
    engines

let run_row ?(timeout = 1200.0) ?(metrics = false) ~section ~engines
    (circuit, prop, bound) =
  run_case ~timeout ~metrics ~section ~engines
    ~label:(Registry.instance_name ~circuit ~prop ~bound)
    (fun () -> Registry.instance ~circuit ~prop ~bound)

let run_table2 ?timeout ?metrics scale =
  let timeout = Option.value timeout ~default:(default_timeout scale) in
  List.concat_map
    (run_row ~timeout ?metrics ~section:"table2"
       ~engines:Engine.table2_engines)
    (table2_instances scale)

(* ---- suite extension: the circuits beyond the paper's subset ---- *)

let extension_instances =
  [
    ("b03", "1", 30); ("b03", "2", 30);
    ("b05", "1", 20); ("b05", "2", 20);
    ("b06", "1", 30); ("b06", "2", 30);
    ("b07", "1", 30); ("b07", "2", 30);
    ("b08", "1", 30); ("b08", "2", 30);
    ("b09", "1", 30); ("b09", "3", 30);
    ("b10", "1", 30); ("b10", "2", 30);
    ("b11", "1", 12); ("b11", "3", 12);
  ]

let run_extension ?(timeout = 20.0) ?metrics _scale =
  List.concat_map
    (run_row ~timeout ?metrics ~section:"extension"
       ~engines:
         [ Engine.Hdpll; Engine.Hdpll_s; Engine.Hdpll_sp; Engine.Bitblast ])
    extension_instances

(* ---- wide_wrap family: wrap-around arithmetic corners over wide
   words.  One-frame BMC with Final semantics; every case is Sat with
   exactly one witness at a wrap corner, which the interval kernel can
   only reach through the overflow branch — the workload class behind
   the w61 slow-convergence pathology. ---- *)

module N = Rtlsat_rtl.Netlist
module Bmc = Rtlsat_bmc.Bmc

let wide_wrap_widths = [ 32; 48; 61 ]
let wide_wrap_kinds = [ "add"; "sub"; "mulc" ]

let wide_wrap_cases =
  List.concat_map
    (fun kind -> List.map (fun w -> (kind, w)) wide_wrap_widths)
    wide_wrap_kinds

let wide_wrap_label (kind, width) = Printf.sprintf "wide_%s_w%d" kind width

let wide_wrap_instance (kind, width) =
  let c = N.create (wide_wrap_label (kind, width)) in
  let p =
    match kind with
    | "add" ->
      (* x+1 wraps below x only at the all-ones corner *)
      let x = N.input c ~name:"x" width in
      N.le c x (N.add c x (N.const c ~width 1))
    | "sub" ->
      (* x-1 wraps above x only at zero *)
      let x = N.input c ~name:"x" width in
      N.le c (N.sub c x (N.const c ~width 1)) x
    | "mulc" ->
      (* 3x drops below x only when the product wraps.  mul_const is
         exact (the product grows two bits), so the operand lives at
         width-2 and the product wraps back to it via extract; the
         family width is the product's.  This also keeps the top case
         inside the backend's 61-bit word ceiling. *)
      let ow = width - 2 in
      let x = N.input c ~name:"x" ow in
      let z = N.mul_const c 3 x in
      N.le c x (N.extract c z ~msb:(ow - 1) ~lsb:0)
    | _ -> invalid_arg "wide_wrap_instance"
  in
  N.output c "prop" p;
  Bmc.make c ~prop:p ~bound:1 ~semantics:Bmc.Final ()

let run_wide_wrap ?(timeout = 20.0) ?(metrics = false) _scale =
  List.concat_map
    (fun case ->
       run_case ~timeout ~metrics ~section:"wide_wrap"
         ~engines:
           [ Engine.Hdpll; Engine.Hdpll_s; Engine.Hdpll_sp; Engine.Hdpll_p ]
         ~label:(wide_wrap_label case)
         (fun () -> wide_wrap_instance case))
    wide_wrap_cases

(* ---- bmc_sweep family: incremental sessions vs from-scratch ----

   Each case sweeps a list of bounds for one (circuit, property)
   through a single solver session per engine — the unroll grows
   frame-incrementally and every bound is posed as an assumption
   literal — and, for comparison, re-solves each bound from scratch
   with [run_instance].  The carried-clause / carried-relation
   counters make the session reuse visible. *)

let bmc_sweep_cases = function
  | `Full ->
    [
      ("b01", "1", [ 10; 20; 30; 40; 50 ]);
      ("b02", "1", [ 10; 20; 30; 40; 50 ]);
      ("b04", "1", [ 10; 20; 30; 40 ]);
      ("b13", "5", [ 10; 20; 30; 40; 50 ]);
    ]
  | `Scaled ->
    [
      ("b01", "1", [ 4; 8; 12; 16 ]);
      ("b02", "1", [ 4; 8; 12; 16 ]);
      ("b13", "5", [ 4; 8; 12 ]);
    ]

let run_bmc_sweep ?timeout ?(metrics = false) scale =
  let timeout = Option.value timeout ~default:(default_timeout scale) in
  List.concat_map
    (fun (circuit, prop, bounds) ->
       let source, props = Registry.build circuit in
       let p = List.assoc prop props in
       List.concat_map
         (fun e ->
            let name = Engine.name_of e in
            Engine.run_sweep ~req:(run_req ~timeout metrics) e source ~prop:p
              ~bounds
            |> List.concat_map (fun (step : Engine.sweep_step) ->
                let bound = step.Engine.sw_bound in
                let row =
                  row "bmc_sweep" (Registry.instance_name ~circuit ~prop ~bound)
                in
                let carried =
                  [
                    ( "carried_clauses",
                      Json.Int step.Engine.sw_carried_clauses );
                    ( "carried_relations",
                      Json.Int step.Engine.sw_carried_relations );
                  ]
                in
                [
                  row (name ^ "/incr") step.Engine.sw_run ~extra:carried;
                  row (name ^ "/scratch")
                    (Engine.run_instance ~req:(run_req ~timeout metrics) e
                       (Registry.instance ~circuit ~prop ~bound));
                ]))
         [ Engine.Hdpll; Engine.Hdpll_sp; Engine.Bitblast ])
    (bmc_sweep_cases scale)

(* ---- simplify family: pre/inprocessing on vs off ----

   Each case solves one instance per engine twice — simplification on
   (the default) and off — with obs attached by default so the on
   arm's simplify.* counters land in the artifact.  The family locks in two
   facts: simplification never flips a verdict, and it actually
   reduces the clause databases (all-zero counters would mean the
   pipeline is wired but dead). *)

let simplify_cases = function
  | `Full ->
    [
      ("b01", "1", 20);
      ("b02", "1", 20);
      ("b04", "1", 20);
      ("b13", "1", 30);
      ("b13", "5", 30);
    ]
  | `Scaled -> [ ("b01", "1", 10); ("b02", "1", 10); ("b13", "1", 10) ]

let run_simplify ?timeout ?(metrics = true) scale =
  let timeout = Option.value timeout ~default:(default_timeout scale) in
  List.concat_map
    (fun (circuit, prop, bound) ->
       List.concat_map
         (fun e ->
            let mk () = Registry.instance ~circuit ~prop ~bound in
            let row =
              row "simplify" (Registry.instance_name ~circuit ~prop ~bound)
            in
            let name = Engine.name_of e in
            [
              row (name ^ "/simp")
                (Engine.run_instance ~req:(run_req ~timeout metrics) e (mk ()));
              row (name ^ "/nosimp")
                (Engine.run_instance
                   ~req:(run_req ~simplify:false ~timeout metrics) e (mk ()));
            ])
         [ Engine.Hdpll_sp; Engine.Bitblast ])
    (simplify_cases scale)

let families : family list =
  [
    ("table1", run_table1);
    ("table2", run_table2);
    ("extension", run_extension);
    ("wide_wrap", run_wide_wrap);
    ("bmc_sweep", run_bmc_sweep);
    ("simplify", run_simplify);
  ]

(* ---- printers ---- *)

let time_cell (r : Engine.run) =
  match r.Engine.verdict with
  | Engine.Timeout -> "-to-"
  | Engine.Abort _ -> "-A-"
  | _ -> Printf.sprintf "%.2f" r.Engine.time

(* consecutive rows of one instance, in order *)
let by_instance rows =
  List.fold_left
    (fun acc r ->
       match acc with
       | (i, rs) :: tl when i = r.instance -> (i, r :: rs) :: tl
       | _ -> (r.instance, [ r ]) :: acc)
    [] rows
  |> List.rev_map (fun (i, rs) -> (i, List.rev rs))

(* the instance's verdict: its first decided arm's *)
let reference_verdict rs =
  match
    List.find_opt
      (fun r ->
         match r.run.Engine.verdict with
         | Engine.Sat | Engine.Unsat -> true
         | _ -> false)
      rs
  with
  | Some r -> r.run.Engine.verdict
  | None -> Engine.Timeout

let int_extra key r =
  match List.assoc_opt key r.extra with
  | Some (Json.Int n) -> string_of_int n
  | _ -> "-"

(* The paper's layout: one line per instance, one time column per arm.
   Table 1 reports the learning arm's relation count and learning
   time; the other pivots the instance's operator counts. *)
let print_pivot fmt section rows =
  let groups = by_instance rows in
  let table1 = section = "table1" in
  let width = if table1 then 8 else 9 in
  let scalars rs =
    if table1 then
      let learned = List.nth rs (List.length rs - 1) in
      [
        (8, string_of_int learned.run.Engine.relations);
        (10, Printf.sprintf "%.2f" learned.run.Engine.learn_time);
      ]
    else
      let r = List.hd rs in
      [ (8, int_extra "arith_ops" r); (8, int_extra "bool_ops" r) ]
  in
  let line label verdict scalars cells =
    Format.fprintf fmt "%-14s %-4s" label verdict;
    List.iter (fun (w, s) -> Format.fprintf fmt " %*s" w s) scalars;
    List.iter (fun s -> Format.fprintf fmt " %*s" width s) cells;
    Format.fprintf fmt "@."
  in
  if table1 then
    Format.fprintf fmt
      "Table 1: Run-Time Analysis of Predicate Learning (times in seconds)@."
  else if section = "table2" then
    Format.fprintf fmt
      "Table 2: Run-Time Analysis of Structural Decision Strategy (times in \
       seconds)@.(UCLID is substituted by eager bit-blasting, ICS by a lazy \
       CDP; see DESIGN.md)@.";
  match groups with
  | [] -> ()
  | (_, first) :: _ ->
    let arms = List.map (fun r -> r.arm) first in
    if table1 then
      line "Ckt" "Type" [ (8, "No.Rels"); (10, "LearnTime") ]
        (List.map String.uppercase_ascii arms)
    else line "Test-case" "Rslt" [ (8, "ArithOps"); (8, "BoolOps") ] arms;
    List.iter
      (fun (instance, rs) ->
         line instance
           (Engine.verdict_symbol (reference_verdict rs))
           (scalars rs)
           (List.map (fun r -> time_cell r.run) rs))
      groups

(* one line per row, extras as key=value *)
let print_rows fmt rows =
  Format.fprintf fmt "%-14s %-18s %-4s %9s  extra@." "instance" "arm" "rslt"
    "time_s";
  List.iter
    (fun r ->
       Format.fprintf fmt "%-14s %-18s %-4s %9.2f" r.instance r.arm
         (Engine.verdict_symbol r.run.Engine.verdict)
         r.run.Engine.time;
       List.iter
         (fun (k, v) -> Format.fprintf fmt " %s=%s" k (Json.to_string v))
         r.extra;
       Format.fprintf fmt "@.")
    rows

let print fmt rows =
  match rows with
  | [] -> ()
  | { section = ("table1" | "table2" | "extension" | "wide_wrap") as s; _ }
    :: _ ->
    print_pivot fmt s rows
  | _ -> print_rows fmt rows
