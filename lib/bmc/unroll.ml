open Rtlsat_rtl

type t = {
  build : Opt.t;
  source : Ir.circuit;
  copied : Ir.node list;  (* the roots' sequential cone and every input *)
  mutable frames : int;
  map : (int * int, Ir.node) Hashtbl.t;
}

let combo u = Opt.circuit u.build
let source u = u.source
let frames u = u.frames

let node_at u n f = Hashtbl.find u.map (n.Ir.id, f)

let input_at u n f =
  match n.Ir.op with
  | Ir.Input -> node_at u n f
  | _ -> invalid_arg "Unroll.input_at: not a primary input"

let copy_node ~free_init u f n =
  let name = Option.map (fun s -> Printf.sprintf "%s@%d" s f) n.Ir.name in
  let image =
    match n.Ir.op with
    | Ir.Input -> Netlist.input (combo u) ?name n.Ir.width
    | Ir.Reg r when f = 0 ->
      if free_init then
        (* arbitrary initial state: the induction step starts from
           any state, not just reset *)
        Netlist.input (combo u)
          ?name:(Option.map (fun s -> s ^ "@init") n.Ir.name)
          n.Ir.width
      else Opt.const u.build ~width:n.Ir.width r.Ir.init
    | Ir.Reg { next = Some nx; _ } -> node_at u nx (f - 1)
    | Ir.Reg { next = None; _ } -> invalid_arg "Unroll.unroll: unconnected register"
    | _ -> Opt.copy u.build ?name n (fun m -> node_at u m f)
  in
  Hashtbl.replace u.map (n.Ir.id, f) image

(* copy frames [lo..hi-1] and register the copied outputs of frame
   hi-1 (names carry the frame, so successive extensions never clash) *)
let add_frames ~free_init u lo hi =
  for f = lo to hi - 1 do
    List.iter (copy_node ~free_init u f) u.copied
  done;
  List.iter
    (fun (oname, n) ->
       match Hashtbl.find_opt u.map (n.Ir.id, hi - 1) with
       | Some m -> Netlist.output (combo u) (Printf.sprintf "%s@%d" oname (hi - 1)) m
       | None -> ())
    u.source.Ir.outputs

let unroll ?(free_init = false) source ~roots ~frames =
  if frames < 1 then invalid_arg "Unroll.unroll: frames < 1";
  let cone = Structure.coi source roots in
  let copied =
    List.filter
      (fun n -> match n.Ir.op with Ir.Input -> true | _ -> cone.(n.Ir.id))
      (Ir.nodes source)
  in
  let u =
    {
      build = Opt.create (source.Ir.cname ^ "_u" ^ string_of_int frames);
      source;
      copied;
      frames;
      map = Hashtbl.create 1024;
    }
  in
  add_frames ~free_init u 0 frames;
  u

let extend u ~frames =
  if frames > u.frames then begin
    (* frame 0 already exists, so [free_init] is irrelevant here: new
       frames always chain registers to the previous frame *)
    add_frames ~free_init:false u u.frames frames;
    u.frames <- frames
  end
