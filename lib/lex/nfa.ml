type state = int

type t = {
  num_states : int;
  start : state;
  eps : state list array;  (** epsilon transitions *)
  trans : (char * char * state) list array;  (** range transitions *)
  accepts : int option array;  (** accepting rule index per state *)
}

let num_states n = n.num_states
let start n = n.start
let accept_rule n s = n.accepts.(s)

(* Mutable builder. *)
type builder = {
  mutable n : int;
  mutable b_eps : (state * state) list;
  mutable b_trans : (state * char * char * state) list;
  mutable b_accepts : (state * int) list;
}

let fresh b =
  let s = b.n in
  b.n <- b.n + 1;
  s

let add_eps b s1 s2 = b.b_eps <- (s1, s2) :: b.b_eps
let add_trans b s1 lo hi s2 = b.b_trans <- (s1, lo, hi, s2) :: b.b_trans

(* Thompson fragment for [re] between fresh entry/exit states. *)
let rec fragment b re =
  match Regex.view re with
  | Regex.Eps ->
    let s = fresh b and e = fresh b in
    add_eps b s e;
    (s, e)
  | Regex.Ranges ranges ->
    let s = fresh b and e = fresh b in
    List.iter (fun (lo, hi) -> add_trans b s lo hi e) ranges;
    (s, e)
  | Regex.Seq2 (r1, r2) ->
    let s1, e1 = fragment b r1 in
    let s2, e2 = fragment b r2 in
    add_eps b e1 s2;
    (s1, e2)
  | Regex.Alt2 (r1, r2) ->
    let s = fresh b and e = fresh b in
    let s1, e1 = fragment b r1 in
    let s2, e2 = fragment b r2 in
    add_eps b s s1;
    add_eps b s s2;
    add_eps b e1 e;
    add_eps b e2 e;
    (s, e)
  | Regex.Star r ->
    let s = fresh b and e = fresh b in
    let s1, e1 = fragment b r in
    add_eps b s s1;
    add_eps b s e;
    add_eps b e1 s1;
    add_eps b e1 e;
    (s, e)

let build rules =
  let b = { n = 0; b_eps = []; b_trans = []; b_accepts = [] } in
  let start = fresh b in
  List.iteri
    (fun ix re ->
      let s, e = fragment b re in
      add_eps b start s;
      b.b_accepts <- (e, ix) :: b.b_accepts)
    rules;
  let eps = Array.make b.n [] in
  List.iter (fun (s1, s2) -> eps.(s1) <- s2 :: eps.(s1)) b.b_eps;
  let trans = Array.make b.n [] in
  List.iter
    (fun (s1, lo, hi, s2) -> trans.(s1) <- (lo, hi, s2) :: trans.(s1))
    b.b_trans;
  let accepts = Array.make b.n None in
  List.iter
    (fun (s, ix) ->
      (* Lowest rule index wins when fragments share a state (they cannot,
         but be defensive). *)
      match accepts.(s) with
      | Some ix' when ix' <= ix -> ()
      | _ -> accepts.(s) <- Some ix)
    b.b_accepts;
  { num_states = b.n; start; eps; trans; accepts }

let eps_closure nfa states =
  let seen = Array.make nfa.num_states false in
  let rec go s =
    if not seen.(s) then begin
      seen.(s) <- true;
      List.iter go nfa.eps.(s)
    end
  in
  List.iter go states;
  let acc = ref [] in
  for s = nfa.num_states - 1 downto 0 do
    if seen.(s) then acc := s :: !acc
  done;
  !acc

let step nfa states c =
  let seen = Array.make nfa.num_states false in
  List.iter
    (fun s ->
      List.iter
        (fun (lo, hi, s') -> if c >= lo && c <= hi then seen.(s') <- true)
        nfa.trans.(s))
    states;
  let acc = ref [] in
  for s = nfa.num_states - 1 downto 0 do
    if seen.(s) then acc := s :: !acc
  done;
  !acc

(* --- Batch stepping for the subset construction ------------------------

   Every range boundary cuts the byte alphabet: a cut at [lo] and at
   [hi + 1] of each range.  Between two cuts every range either contains
   all bytes or none, so [step] gives the same set for every byte of an
   interval and the DFA builder steps once per interval. *)

let alphabet_partition nfa =
  let cut = Array.make 257 false in
  cut.(0) <- true;
  Array.iter
    (List.iter (fun (lo, hi, _) ->
         cut.(Char.code lo) <- true;
         cut.(Char.code hi + 1) <- true))
    nfa.trans;
  let lows = ref [] in
  for c = 255 downto 0 do
    if cut.(c) then lows := c :: !lows
  done;
  Array.of_list !lows

(* [mark.(s) = gen] means [s] is in the set under construction; bumping
   [gen] clears every mark at once.  [work] holds the marked states in
   discovery order and doubles as the closure's worklist. *)
let step_closure nfa =
  let mark = Array.make nfa.num_states 0 in
  let gen = ref 0 in
  let work = Array.make nfa.num_states 0 in
  fun states c ->
    incr gen;
    let gen = !gen in
    let n = ref 0 in
    let push s =
      if mark.(s) <> gen then begin
        mark.(s) <- gen;
        work.(!n) <- s;
        incr n
      end
    in
    Array.iter
      (fun s ->
        List.iter
          (fun (lo, hi, s') -> if c >= lo && c <= hi then push s')
          nfa.trans.(s))
      states;
    let i = ref 0 in
    while !i < !n do
      List.iter push nfa.eps.(work.(!i));
      incr i
    done;
    let out = Array.sub work 0 !n in
    Array.sort Int.compare out;
    out
