(* Differential tests for the zero-copy token pipeline: the compiled
   buffer scanner against the legacy list scanner (tokens, lexemes,
   positions), the equivalence-classed DFA stepping against the raw
   256-column rows, the array-cursor parser against the list API, and
   the steady-state allocation contract (~0 minor words per token). *)

open Costar_grammar
open Costar_core
open Costar_lex

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- random scanner specs ----------------------------------------------- *)

(* A small pool of handwritten regexes over {a, b, c, 0, 1, space}; random
   specs pick a subset (in random order, exercising first-rule-wins) plus a
   skip rule.  None accept the empty string. *)
let regex_pool =
  let open Regex in
  [|
    ("AB", str "ab");
    ("ABC", str "abc");
    ("AS", plus (chr 'a'));
    ("BS", plus (chr 'b'));
    ("LETTERS", plus (set "abc"));
    ("NUM", plus (set "01"));
    ("WORD", seq [ set "abc"; star (set "abc01") ]);
    ("PAIR", seq [ set "ab"; set "01" ]);
    ("OPT0", seq [ chr 'c'; opt (chr '0') ]);
    ("MIX", seq [ chr 'b'; alt [ chr 'a'; chr '1' ] ]);
  |]

let gen_spec : Scanner.rule list QCheck.Gen.t =
  let open QCheck.Gen in
  let n = Array.length regex_pool in
  int_range 2 n >>= fun k ->
  shuffle_l (List.init n Fun.id) >|= fun order ->
  let picked = List.filteri (fun i _ -> i < k) order in
  let rules =
    List.map
      (fun i ->
        let name, re = regex_pool.(i) in
        Scanner.rule name re)
      picked
  in
  rules @ [ Scanner.rule "WS" ~skip:true Regex.(plus (chr ' ')) ]

let gen_input : string QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 0 40 >>= fun len ->
  string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; '0'; '1'; ' ' ]) (return len)

(* Wide specs: regexes over all 256 bytes.  Each spec draws a palette of a
   few random bytes (NUL and high bytes included); chars, ranges, sets and
   complements take their endpoints from it, so ranges overlap and share
   edges, and inputs drawn from the palette and its neighbours hit those
   edges.  [any] and complements reach every other byte. *)
let gen_wide_spec_input : (Scanner.rule list * string) QCheck.Gen.t =
  let open QCheck.Gen in
  list_size (int_range 2 5) (int_bound 255) >>= fun palette ->
  let byte = map Char.chr (oneofl palette) in
  let bytes =
    map
      (fun l -> String.of_seq (List.to_seq l))
      (list_size (int_range 1 3) byte)
  in
  let atom =
    frequency
      [
        (3, map Regex.chr byte);
        (3, map2 (fun a b -> Regex.range (min a b) (max a b)) byte byte);
        (2, map Regex.set bytes);
        (2, map (fun s -> Regex.none_of s) bytes);
        (1, return Regex.any);
      ]
  in
  let re =
    fix
      (fun self depth ->
        if depth = 0 then atom
        else
          frequency
            [
              (3, atom);
              (2, map Regex.seq (list_size (int_range 2 3) (self (depth - 1))));
              (2, map Regex.alt (list_size (int_range 2 3) (self (depth - 1))));
              (1, map Regex.star (self (depth - 1)));
              (1, map Regex.plus (self (depth - 1)));
              (1, map Regex.opt (self (depth - 1)));
            ])
      3
  in
  (* Scanner rules must not accept the empty string. *)
  let rule_re =
    map2 (fun a r -> if Regex.nullable r then Regex.seq [ a; r ] else r) atom re
  in
  list_size (int_range 1 6) rule_re >>= fun res ->
  let rules =
    List.mapi (fun i re -> Scanner.rule (Printf.sprintf "R%d" i) re) res
  in
  let input_byte =
    frequency
      [
        (6, oneofl palette);
        (2, map (fun c -> max 0 (c - 1)) (oneofl palette));
        (2, map (fun c -> min 255 (c + 1)) (oneofl palette));
        (1, int_bound 255);
      ]
  in
  list_size (int_range 0 30) (map Char.chr input_byte) >|= fun input ->
  (rules, String.of_seq (List.to_seq input))

let arb_of gen =
  QCheck.make
    ~print:(fun (rules, input) ->
      Printf.sprintf "rules: %s\ninput: %S"
        (String.concat " " (List.map (fun (r : Scanner.rule) -> r.name) rules))
        input)
    gen

(* Half narrow specs over a handwritten pool, half wide ones. *)
let arb_spec_input =
  arb_of
    QCheck.Gen.(
      frequency [ (1, pair gen_spec gen_input); (1, gen_wide_spec_input) ])

(* A grammar that declares every rule name as a terminal, so both
   pipelines can resolve kinds. *)
let grammar_for rules =
  Grammar.define
    ~extra_terminals:(List.map (fun (r : Scanner.rule) -> r.name) rules)
    ~start:"S"
    [ ("S", [ [] ]) ]

let same_token (t1 : Token.t) (t2 : Token.t) =
  t1.Token.term = t2.Token.term
  && String.equal t1.Token.lexeme t2.Token.lexeme
  && t1.Token.line = t2.Token.line
  && t1.Token.col = t2.Token.col

(* --- properties --------------------------------------------------------- *)

let prop_scan_buf_agrees =
  QCheck.Test.make ~count:1000
    ~name:"scan_buf tokens/lexemes/positions = legacy tokenize"
    arb_spec_input (fun (rules, input) ->
      let sc = Scanner.make rules in
      let g = grammar_for rules in
      let compiled =
        match Scanner.compile sc g with
        | Ok c -> c
        | Error msg -> QCheck.Test.fail_reportf "compile failed: %s" msg
      in
      match Scanner.tokenize sc g input, Scanner.scan_buf compiled input with
      | Ok toks, Ok buf ->
        List.length toks = Token_buf.length buf
        && List.for_all2 same_token toks (Token_buf.to_tokens buf)
      | Error e1, Error e2 ->
        (* Same failure position, both pipelines. *)
        e1.Scanner.err_line = e2.Scanner.err_line
        && e1.Scanner.err_col = e2.Scanner.err_col
      | Ok _, Error _ | Error _, Ok _ -> false)

let prop_classes_correct =
  QCheck.Test.make ~count:300
    ~name:"class-table stepping = raw-row stepping (all states x 256 bytes)"
    arb_spec_input (fun (rules, _) ->
      let d = Scanner.dfa (Scanner.make rules) in
      let ok = ref true in
      for s = 0 to Dfa.num_states d - 1 do
        for c = 0 to 255 do
          let c = Char.chr c in
          if Dfa.next d s c <> Dfa.next_raw d s c then ok := false
        done
      done;
      !ok)

let prop_classes_partition =
  QCheck.Test.make ~count:300
    ~name:"class table is a partition of the byte range"
    arb_spec_input (fun (rules, _) ->
      let d = Scanner.dfa (Scanner.make rules) in
      let tbl = Dfa.class_table d in
      let nc = Dfa.num_classes d in
      Array.length tbl = 256
      && nc >= 1
      && nc <= 256
      && Array.for_all (fun k -> k >= 0 && k < nc) tbl
      (* Every class id is inhabited. *)
      && List.for_all
           (fun k -> Array.exists (fun k' -> k' = k) tbl)
           (List.init nc Fun.id))

(* Maximal munch from [pos] as (end offset, rule index), first rule wins
   on equal length; (-1, -1) if nothing matches.  [step] advances a state
   on one byte, [accept] is its lowest accepting rule or -1, and [dead]
   tells that no further byte can lead to a match. *)
let munch ~init ~step ~accept ~dead input pos =
  let best = ref (-1, -1) in
  let rec go st i =
    if i < String.length input then begin
      let st = step st input.[i] in
      if not (dead st) then begin
        let r = accept st in
        if r >= 0 then best := (i + 1, r);
        go st (i + 1)
      end
    end
  in
  go init pos;
  !best

(* The reference semantics: the NFA stepped one byte at a time with
   [Nfa.step] and [Nfa.eps_closure]. *)
let nfa_munch nfa =
  munch
    ~init:(Nfa.eps_closure nfa [ Nfa.start nfa ])
    ~step:(fun st c -> Nfa.eps_closure nfa (Nfa.step nfa st c))
    ~accept:(fun st ->
      List.fold_left
        (fun acc s ->
          match Nfa.accept_rule nfa s with
          | Some ix when acc < 0 || ix < acc -> ix
          | _ -> acc)
        (-1) st)
    ~dead:(fun st -> st = [])

let dfa_munch d =
  munch ~init:(Dfa.start d) ~step:(Dfa.next d) ~accept:(Dfa.accept_ix d)
    ~dead:(fun s -> s < 0)

let prop_dfa_munch_is_nfa_munch =
  QCheck.Test.make ~count:500
    ~name:"DFA maximal munch = NFA-simulated maximal munch (wide specs)"
    (arb_of gen_wide_spec_input) (fun (rules, input) ->
      let d = Scanner.dfa (Scanner.make rules) in
      let nfa = Nfa.build (List.map (fun (r : Scanner.rule) -> r.re) rules) in
      List.for_all
        (fun pos -> dfa_munch d input pos = nfa_munch nfa input pos)
        (List.init (String.length input + 1) Fun.id))

(* Parse differential: a scanner whose rules are single characters over the
   random grammar's terminals, so that random words round-trip through a
   real string input and both the list and buffer pipelines. *)
let single_char_scanner_for g =
  let rules =
    List.init (Grammar.num_terminals g) (fun t ->
        let name = Grammar.terminal_name g t in
        Scanner.rule name (Regex.str name))
  in
  Scanner.make (rules @ [ Scanner.rule "WS" ~skip:true Regex.(plus (chr ' ')) ])

let same_result r1 r2 =
  match r1, r2 with
  | Parser.Unique t1, Parser.Unique t2 -> Tree.equal t1 t2
  | Parser.Ambig t1, Parser.Ambig t2 -> Tree.equal t1 t2
  | Parser.Reject _, Parser.Reject _ -> true
  | Parser.Error e1, Parser.Error e2 -> e1 = e2
  | _ -> false

let prop_parse_buf_agrees =
  QCheck.Test.make ~count:400
    ~name:"run_buf verdict+tree = list run verdict+tree"
    Util.arb_grammar_word (fun (g, w) ->
      match Left_recursion.check g with
      | Error _ -> true
      | Ok () -> (
        let sc = single_char_scanner_for g in
        let input = String.concat " " w in
        let compiled =
          match Scanner.compile sc g with
          | Ok c -> c
          | Error msg -> QCheck.Test.fail_reportf "compile failed: %s" msg
        in
        let p = Parser.make g in
        match Scanner.tokenize sc g input, Scanner.scan_buf compiled input with
        | Ok toks, Ok buf ->
          (* Note: tree leaves carry positions from different laziness
             paths; Tree.equal compares terminals and lexemes. *)
          same_result (Parser.run p toks) (Parser.run_buf p buf)
        | Error _, Error _ -> true
        | _ -> false))

(* --- language frontends -------------------------------------------------- *)

let langs = Costar_langs.[ Json.lang; Xml.lang; Dot.lang; Minipy.lang ]

let test_langs_differential () =
  List.iter
    (fun l ->
      let name = l.Costar_langs.Lang.name in
      List.iter
        (fun seed ->
          let input = Costar_langs.Lang.generate l ~seed ~size:120 in
          let toks = Costar_langs.Lang.tokenize_exn l input in
          let buf = Costar_langs.Lang.tokenize_buf_exn l input in
          check_int
            (Printf.sprintf "%s seed %d: token count" name seed)
            (List.length toks) (Token_buf.length buf);
          List.iteri
            (fun i t ->
              let t' = Token_buf.token buf i in
              if not (same_token t t') then
                Alcotest.failf
                  "%s seed %d: token %d differs: (%d,%S,%d:%d) vs (%d,%S,%d:%d)"
                  name seed i t.Token.term t.Token.lexeme t.Token.line
                  t.Token.col t'.Token.term t'.Token.lexeme t'.Token.line
                  t'.Token.col)
            toks;
          let p = Parser.make (Costar_langs.Lang.grammar l) in
          check
            (Printf.sprintf "%s seed %d: same parse result" name seed)
            true
            (same_result (Parser.run p toks) (Parser.run_buf p buf)))
        [ 1; 2; 3 ])
    langs

(* Bit-identity pin for the built-in scanners: an MD5 over the start
   state, state count, byte->class map, class transition table and accept
   indices.  The coverage universe's lexer-transition ids, the lint goldens
   and [cover --close] name DFA states and classes by number, so a change
   to the subset construction must keep every id.  The values were taken
   with the byte-by-byte builder this suite's properties still check
   against. *)
let dfa_digest d =
  let b = Buffer.create 4096 in
  let add i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ','
  in
  add (Dfa.start d);
  add (Dfa.num_states d);
  add (Dfa.num_classes d);
  Array.iter add (Dfa.class_table d);
  for s = 0 to Dfa.num_states d - 1 do
    for k = 0 to Dfa.num_classes d - 1 do
      add (Dfa.next_class d s k)
    done
  done;
  for s = 0 to Dfa.num_states d - 1 do
    add (Dfa.accept_ix d s)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_dfa_digests =
  [
    ("json", "d4177b99d15ea78c2e4c0bc3558ae330");
    ("xml", "08ad278fe3f64e07dfff2cbbd3821fed");
    ("dot", "a50c91fd153312db1e95faa522e3665c");
    ("minipy", "4268d0a6675f5ac74d98005f18412b01");
  ]

let test_dfa_digests_pinned () =
  List.iter
    (fun l ->
      let name = l.Costar_langs.Lang.name in
      match Costar_langs.Lang.scanner l with
      | None -> Alcotest.failf "%s has no scanner" name
      | Some sc ->
        Alcotest.(check string)
          (name ^ " DFA digest")
          (List.assoc name pinned_dfa_digests)
          (dfa_digest (Scanner.dfa sc)))
    langs

let test_minipy_indent_error_agrees () =
  (* Inconsistent dedent: both pipelines must reject, with the same
     message. *)
  let l = Costar_langs.Minipy.lang in
  let input = "if x:\n    y = 1\n  z = 2\n" in
  match
    Costar_langs.Lang.tokenize l input, Costar_langs.Lang.tokenize_buf l input
  with
  | Error m1, Error m2 -> Alcotest.(check string) "same error" m1 m2
  | _ -> Alcotest.fail "expected both pipelines to reject"

(* --- steady-state allocation --------------------------------------------- *)

let test_scan_minor_words () =
  let l = Costar_langs.Json.lang in
  let input = Costar_langs.Lang.generate l ~seed:7 ~size:2000 in
  let compiled =
    match
      Scanner.compile
        (Lazy.force Costar_langs.Json.scanner)
        (Costar_langs.Lang.grammar l)
    with
    | Ok c -> c
    | Error msg -> Alcotest.failf "compile failed: %s" msg
  in
  let buf = Token_buf.create_for_input input in
  Scanner.scan_into compiled buf input;
  let n = Token_buf.length buf in
  check "corpus has tokens" true (n > 1000);
  (* Warm re-scan of the same input into the cleared buffer: the per-token
     cost must be three int writes, i.e. no minor-heap allocation at all
     beyond fixed per-call noise. *)
  Token_buf.clear buf;
  let before = Gc.minor_words () in
  Scanner.scan_into compiled buf input;
  let words = Gc.minor_words () -. before in
  check
    (Printf.sprintf "minor words per token ~ 0 (got %.3f for %d tokens)"
       (words /. float_of_int n) n)
    true
    (words /. float_of_int n < 0.01)

(* Warm end-to-end parse: with the DFA cache saturated, run_buf's per-token
   cost is the tree-building floor (one Token and one Leaf per consumed
   token plus machine steps) — a fixed budget, not zero.  The budget fences
   the data plane: reintroducing per-token boxing in the scanner, the word
   cursor, or warm prediction blows well past it. *)
let test_run_buf_minor_words () =
  List.iter
    (fun (l, budget) ->
      let name = l.Costar_langs.Lang.name in
      let input = Costar_langs.Lang.generate l ~seed:11 ~size:4000 in
      let p = Parser.make (Costar_langs.Lang.grammar l) in
      let buf = Costar_langs.Lang.tokenize_buf_exn l input in
      let n = Token_buf.length buf in
      check (name ^ " corpus has tokens") true (n > 500);
      (* Two warm-up runs saturate the base DFA cache for this input. *)
      ignore (Parser.run_buf p buf);
      ignore (Parser.run_buf p buf);
      Gc.full_major ();
      (* Min over samples: one-sided GC/interference noise only inflates. *)
      let best = ref infinity in
      for _ = 1 to 3 do
        let m0 = Gc.minor_words () in
        ignore (Parser.run_buf p buf);
        let w = Gc.minor_words () -. m0 in
        if w < !best then best := w
      done;
      let per_tok = !best /. float_of_int (max 1 n) in
      check
        (Printf.sprintf
           "%s warm run_buf minor words/token within budget (got %.1f, \
            budget %.0f)"
           name per_tok budget)
        true (per_tok < budget))
    Costar_langs.[ (Json.lang, 150.); (Xml.lang, 150.) ]

(* Warm SLL prediction over the array cursor allocates a small constant per
   call (the result tuple and verdict), independent of how many tokens the
   lookahead scans: the scan itself reads kinds straight from the off-heap
   buffer. *)
let test_predict_word_minor_words () =
  let l = Costar_langs.Json.lang in
  let g = Costar_langs.Lang.grammar l in
  let p = Parser.make g in
  let a = Parser.analysis p in
  let input = Costar_langs.Lang.generate l ~seed:11 ~size:2000 in
  let w = Word.of_buf (Costar_langs.Lang.tokenize_buf_exn l input) in
  ignore (Parser.run_word p w);
  let cache = Parser.base_cache p in
  let x = Grammar.start g in
  ignore (Sll.predict_word g a cache x w 0);
  Gc.full_major ();
  let reps = 1000 in
  let m0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sll.predict_word g a cache x w 0)
  done;
  let per_call = (Gc.minor_words () -. m0) /. float_of_int reps in
  check
    (Printf.sprintf "warm predict_word allocates O(1) words/call (got %.1f)"
       per_call)
    true (per_call < 16.)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_scan_buf_agrees;
      prop_classes_correct;
      prop_classes_partition;
      prop_dfa_munch_is_nfa_munch;
      prop_parse_buf_agrees;
    ]

let () =
  Alcotest.run "pipeline"
    [
      ("differential", props);
      ( "langs",
        [
          Alcotest.test_case "buffer pipeline = legacy (4 langs)" `Quick
            test_langs_differential;
          Alcotest.test_case "minipy indent errors agree" `Quick
            test_minipy_indent_error_agrees;
          Alcotest.test_case "scanner DFAs match the pinned digests" `Quick
            test_dfa_digests_pinned;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "steady-state scan allocates ~nothing" `Quick
            test_scan_minor_words;
          Alcotest.test_case "warm run_buf stays within the tree-floor budget"
            `Quick test_run_buf_minor_words;
          Alcotest.test_case "warm predict_word allocates O(1) per call"
            `Quick test_predict_word_minor_words;
        ] );
    ]
