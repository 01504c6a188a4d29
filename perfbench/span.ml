(* In-memory spans for the traced run.

   A span covers one call from the benchmark into a layer's public
   function (or one CLI child process).  Spans nest through a stack of
   open spans; each records its phase, the language it serves and the
   request (input file) it belongs to.  They are kept in memory and
   written out once, at the end of the run. *)

type t = {
  id : int;
  name : string;
  phase : string;
  lang : string;
  req : int;
  parent : int;
  start : int64;
  mutable stop : int64;
}

let all : t list ref = ref []
let next_id = ref 0
let open_ : t list ref = ref []
let cur_phase = ref ""
let cur_req = ref (-1)

let with_span ?(lang = "") name f =
  let parent = match !open_ with p :: _ -> p.id | [] -> -1 in
  let s =
    { id = !next_id; name; phase = !cur_phase; lang; req = !cur_req; parent;
      start = Util.now_ns (); stop = 0L }
  in
  incr next_id;
  open_ := s :: !open_;
  let finish () =
    s.stop <- Util.now_ns ();
    open_ := List.tl !open_;
    all := s :: !all
  in
  match f () with
  | r -> finish (); r
  | exception e -> finish (); raise e

(* A phase is a root span; the spans opened inside it carry its name. *)
let phase name f =
  cur_phase := name;
  with_span ("phase." ^ name) f

(* A request span groups the layer calls made for one input file. *)
let request ~lang req f =
  cur_req := req;
  let r = with_span ~lang "request" f in
  cur_req := -1;
  r

let dur s = Int64.to_float (Int64.sub s.stop s.start) *. 1e-9

(* Self time: a span's duration minus the time its children cover
   (children never overlap: the benchmark is single-threaded). *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    !all;
  List.map
    (fun s -> (s, dur s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    !all

let is_glue s = s.name = "request" || String.starts_with ~prefix:"phase." s.name

(* Total self time (seconds) of the spans matching the filters. *)
let total ?phase ?lang ?name selfs =
  let ok f v = match f with None -> true | Some x -> x = v in
  List.fold_left
    (fun acc (s, self) ->
      if ok phase s.phase && ok lang s.lang && ok name s.name then acc +. self
      else acc)
    0. selfs

let root_wall phase =
  List.fold_left
    (fun acc s -> if s.name = "phase." ^ phase then acc +. dur s else acc)
    0. !all

(* Share of a phase's wall time that layer spans (not the benchmark's own
   request/phase glue) account for. *)
let layer_share selfs phase =
  let layer =
    List.fold_left
      (fun acc (s, self) ->
        if s.phase = phase && not (is_glue s) then acc +. self else acc)
      0. selfs
  in
  Util.ratio layer (root_wall phase)

let write path selfs =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "id\tparent\treq\tphase\tlang\tname\tstart_ns\tend_ns\tself_ns\n";
      List.iter
        (fun (s, self) ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%s\t%s\t%Ld\t%Ld\t%.0f\n" s.id
            s.parent s.req s.phase s.lang s.name s.start s.stop (self *. 1e9))
        (List.sort (fun (a, _) (b, _) -> compare a.id b.id) selfs))
