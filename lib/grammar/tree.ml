open Symbols

type t =
  | Leaf of Token.t
  | Node of nonterminal * t list
  | Error of symbol option * t list

type forest = t list

let root = function
  | Leaf tok -> T tok.Token.term
  | Node (x, _) -> NT x
  | Error (Some s, _) -> s
  | Error (None, _) -> invalid_arg "Tree.root: skipped-input error node"

let rec has_errors = function
  | Leaf _ -> false
  | Node (_, kids) -> List.exists has_errors kids
  | Error _ -> true

let yield v =
  (* Accumulator-based to stay tail-ish on deep trees. *)
  let rec go acc = function
    | Leaf tok -> tok :: acc
    | Node (_, kids) | Error (_, kids) -> List.fold_left go acc kids
  in
  List.rev (go [] v)

let yield_forest f = List.concat_map yield f

let rec size = function
  | Leaf _ -> 1
  | Node (_, kids) | Error (_, kids) ->
    1 + List.fold_left (fun acc k -> acc + size k) 0 kids

let rec depth = function
  | Leaf _ -> 1
  | Node (_, kids) | Error (_, kids) ->
    1 + List.fold_left (fun acc k -> max acc (depth k)) 0 kids

let rec width = function
  | Leaf _ -> 1
  | Node (_, kids) | Error (_, kids) ->
    List.fold_left (fun acc k -> acc + width k) 0 kids

(* Constructor order for [compare]: Leaf < Node < Error. *)
let ctor_rank = function Leaf _ -> 0 | Node _ -> 1 | Error _ -> 2

let rec compare v1 v2 =
  match v1, v2 with
  | Leaf t1, Leaf t2 ->
    let c = Int.compare t1.Token.term t2.Token.term in
    if c <> 0 then c else String.compare t1.Token.lexeme t2.Token.lexeme
  | Node (x1, k1), Node (x2, k2) ->
    let c = Int.compare x1 x2 in
    if c <> 0 then c else compare_forest k1 k2
  | Error (s1, k1), Error (s2, k2) ->
    let c = Option.compare compare_symbol s1 s2 in
    if c <> 0 then c else compare_forest k1 k2
  | (Leaf _ | Node _ | Error _), _ -> Int.compare (ctor_rank v1) (ctor_rank v2)

and compare_forest f1 f2 =
  match f1, f2 with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | v1 :: r1, v2 :: r2 ->
    let c = compare v1 v2 in
    if c <> 0 then c else compare_forest r1 r2

let equal v1 v2 = compare v1 v2 = 0

let nonterminals v =
  let rec go acc = function
    | Leaf _ -> acc
    | Node (x, kids) -> List.fold_left go (Int_set.add x acc) kids
    | Error (at, kids) ->
      let acc =
        match at with Some (NT x) -> Int_set.add x acc | _ -> acc
      in
      List.fold_left go acc kids
  in
  go Int_set.empty v

let rec pp g ppf = function
  | Leaf tok -> Fmt.pf ppf "'%s'" tok.Token.lexeme
  | Node (x, kids) ->
    Fmt.pf ppf "@[<hov 1>(%s%a)@]"
      (Grammar.nonterminal_name g x)
      Fmt.(list ~sep:nop (fun ppf k -> Fmt.pf ppf "@ %a" (pp g) k))
      kids
  | Error (at, kids) ->
    let label =
      match at with
      | None -> "ERROR"
      | Some s -> "ERROR:" ^ Grammar.symbol_name g s
    in
    Fmt.pf ppf "@[<hov 1>(%s%a)@]" label
      Fmt.(list ~sep:nop (fun ppf k -> Fmt.pf ppf "@ %a" (pp g) k))
      kids

(* [pp]'s token stream, fed to the specialised engine.  Adjacent text
   tokens are merged ("(" with the label, the quotes with the lexeme):
   text never blocks the queue, so a merged token leaves every layout
   decision where it was. *)
let rec layout g l = function
  | Leaf tok -> Layout.text3 l "'" tok.Token.lexeme "'"
  | Node (x, kids) ->
    Layout.open_box l;
    Layout.text3 l "(" (Grammar.nonterminal_name g x) "";
    layout_kids g l kids
  | Error (None, kids) ->
    Layout.open_box l;
    Layout.text l "(ERROR";
    layout_kids g l kids
  | Error (Some s, kids) ->
    Layout.open_box l;
    Layout.text3 l "(ERROR:" (Grammar.symbol_name g s) "";
    layout_kids g l kids

and layout_kids g l = function
  | [] ->
    Layout.text l ")";
    Layout.close_box l
  | k :: rest ->
    Layout.break l;
    layout g l k;
    layout_kids g l rest

let to_string g v =
  let l = Layout.create () in
  layout g l v;
  Layout.flush l ~newline:false;
  Layout.contents l

let output g oc v =
  let l = Layout.create ~oc () in
  layout g l v;
  Layout.flush l ~newline:true

let to_dot g v =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph parse_tree {\n  node [shape=box];\n";
  let ctr = ref 0 in
  let fresh () =
    incr ctr;
    !ctr
  in
  let escape s = String.concat "\\\"" (String.split_on_char '"' s) in
  let rec go v =
    let id = fresh () in
    (match v with
    | Leaf tok ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\", shape=ellipse];\n" id
           (escape tok.Token.lexeme))
    | Node (x, kids) ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\"];\n" id
           (escape (Grammar.nonterminal_name g x)));
      List.iter
        (fun k ->
          let kid = go k in
          Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" id kid))
        kids
    | Error (at, kids) ->
      let label =
        match at with
        | None -> "ERROR"
        | Some s -> "ERROR: " ^ Grammar.symbol_name g s
      in
      Buffer.add_string buf
        (Printf.sprintf
           "  n%d [label=\"%s\", shape=diamond, color=red];\n" id
           (escape label));
      List.iter
        (fun k ->
          let kid = go k in
          Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" id kid))
        kids);
    id
  in
  ignore (go v);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
