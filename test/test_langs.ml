(* Benchmark-language tests: every generated corpus file must lex and parse
   to a Unique tree whose yield matches the token stream; hand-written
   positive and negative cases per language; indenter unit tests; Fig. 8
   grammar statistics. *)

open Costar_grammar
open Costar_langs
module P = Costar_core.Parser

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse_lang lang input =
  let g = Lang.grammar lang in
  match Lang.tokenize lang input with
  | Error msg -> Error ("lex: " ^ msg)
  | Ok toks -> (
    match P.parse g toks with
    | P.Unique v -> Ok (`Unique, v, toks)
    | P.Ambig v -> Ok (`Ambig, v, toks)
    | P.Reject msg -> Error ("reject: " ^ msg)
    | P.Error e -> Error ("error: " ^ Costar_core.Types.error_to_string g e))

let expect_unique lang input =
  match parse_lang lang input with
  | Ok (`Unique, v, toks) ->
    let g = Lang.grammar lang in
    check "yield matches tokens" true
      (List.for_all2 Token.equal (Tree.yield v) toks);
    check "derivation checker" true (Derivation.recognizes_start g toks v)
  | Ok (`Ambig, _, _) ->
    Alcotest.failf "%s: ambiguous parse of %s" lang.Lang.name input
  | Error msg -> Alcotest.failf "%s: %s\ninput: %s" lang.Lang.name msg input

let expect_reject lang input =
  match parse_lang lang input with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected reject for %s" lang.Lang.name input

let test_generated lang () =
  List.iter
    (fun (seed, size) ->
      let src = Lang.generate lang ~seed ~size in
      expect_unique lang src)
    [ (1, 5); (2, 20); (3, 60); (4, 150); (5, 400) ]

(* --- JSON --------------------------------------------------------------- *)

let json = Json.lang

let test_json_cases () =
  expect_unique json {|{"a": 1, "b": [true, false, null], "c": {"d": "e"}}|};
  expect_unique json {|[]|};
  expect_unique json {|{}|};
  expect_unique json {|[1, 2.5, -3, 1.0e10, "x\"y"]|};
  expect_unique json {|"lone string"|};
  expect_reject json {|{"a": }|};
  expect_reject json {|[1, 2|};
  expect_reject json {|{,}|};
  expect_reject json {|[1 2]|};
  expect_reject json "@"

let test_json_fig8_stats () =
  (* The desugared JSON grammar matches the paper's Fig. 8 exactly. *)
  let g = Lang.grammar json in
  check_int "|T|" 11 (Grammar.num_terminals g);
  check_int "|N|" 7 (Grammar.num_nonterminals g);
  check_int "|P|" 17 (Grammar.num_productions g)

(* --- XML ---------------------------------------------------------------- *)

let xml = Xml.lang

let test_xml_cases () =
  expect_unique xml {|<?xml version="1.0"?><root><a x="1">hi there</a><b/></root>|};
  expect_unique xml {|<a><!-- comment --><b attr='v'/>&amp;&#38;<c>text</c></a>|};
  expect_unique xml {|<a><![CDATA[raw <stuff>]]></a>|};
  expect_unique xml "<a>\n  <b/>\n</a>";
  expect_unique xml {|<x/>|};
  (* Mismatched tag names are a semantic check, not syntactic — <a></b>
     parses; structural breakage must reject: *)
  expect_reject xml {|<a>|};
  expect_reject xml {|<a/><b/>|};
  expect_reject xml {|</a>|}

let test_xml_not_ll1_shape () =
  (* The two element alternatives stay viable through arbitrarily many
     attributes: exercise deep attribute lists on both. *)
  let attrs =
    String.concat " " (List.init 30 (fun i -> Printf.sprintf "a%d=\"v\"" i))
  in
  expect_unique xml (Printf.sprintf "<e %s></e>" attrs);
  expect_unique xml (Printf.sprintf "<e %s/>" attrs)

(* --- DOT ---------------------------------------------------------------- *)

let dot = Dot.lang

let test_dot_cases () =
  expect_unique dot "digraph g { a -> b; }";
  expect_unique dot "strict graph { a -- b -- c; }";
  expect_unique dot
    "digraph { n0 [color=\"red\", label=\"x\"]; n0 -> n1 -> n2 [weight=\"2\"]; }";
  expect_unique dot "digraph { subgraph cluster_a { x; y; } x -> y; }";
  expect_unique dot "digraph { a:n -> b:s; }";
  expect_unique dot "digraph { graph [size=\"1\"]; node [shape=\"box\"]; }";
  expect_unique dot "digraph { x = y; }";
  expect_unique dot "digraph { subgraph { a; } -> b; }";
  expect_reject dot "digraph { a -> ; }";
  expect_reject dot "graph g { a -> b }  extra";
  expect_reject dot "{ a; }"

(* --- MiniPython --------------------------------------------------------- *)

let minipy = Minipy.lang

let test_minipy_cases () =
  expect_unique minipy "x = 1\n";
  expect_unique minipy "def f(a, b=2):\n    return a + b\n";
  expect_unique minipy
    "class C:\n    def m(self):\n        if self.x > 0:\n            return 1\n        else:\n            return 2\n";
  expect_unique minipy
    "for i in items:\n    total += i\n    if total > 100:\n        break\n";
  expect_unique minipy "while not done:\n    step()\n";
  expect_unique minipy
    "try:\n    risky()\nexcept ValueError as e:\n    handle(e)\nfinally:\n    cleanup()\n";
  expect_unique minipy "import os, sys as system\nfrom a.b import c as d, e\n";
  expect_unique minipy "x = [i * 2 for i in range(10) if i % 2 == 0]\n";
  expect_unique minipy "d = {\"k\": 1, \"j\": 2}\ns = {1, 2, 3}\n";
  expect_unique minipy "f = lambda a, b: a if a > b else b\n";
  expect_unique minipy "xs[1:2] = ys[:3]\n";
  expect_unique minipy "assert x == 1, \"bad\"\ndel xs\nglobal g\n";
  expect_unique minipy "a = b = c = 0\nx, y = y, x\n";
  expect_unique minipy "raise Error(\"x\") from cause\n";
  expect_unique minipy "with open(f) as h, lock() as l:\n    use(h)\n";
  expect_unique minipy "x = (1 +\n     2)\n";
  expect_unique minipy "s = \"a\" \"b\" \"c\"\n";
  expect_unique minipy "x = 1 if flag else 2\ny = not a and b or c\n";
  expect_unique minipy "x = a < b <= c != d\ny = e is not f\nz = g not in h\n";
  expect_unique minipy "@cached\n@app.route(\"x\")\ndef f():\n    pass\n";
  expect_unique minipy "@dec\nclass C:\n    pass\n";
  expect_unique minipy "def g(a, b=1, *args, **kwargs) -> None:\n    yield a\n";
  expect_unique minipy "def h():\n    yield\n    yield from gen()\n";
  expect_unique minipy "f(*xs, **kv)\nf(x for x in xs)\n";
  expect_unique minipy "d = {k: v for k, v in pairs}\ns = {x for x in xs}\n";
  expect_unique minipy "m = {**base, \"k\": 1}\n";
  expect_unique minipy "def t(x: int, y: str = \"d\") -> bool:\n    return True\n";
  expect_unique minipy "x = ...\n";
  expect_reject minipy "def f(:\n    pass\n";
  expect_reject minipy "x = = 1\n";
  expect_reject minipy "return\n1 +\n"

let test_minipy_blank_lines_comments () =
  expect_unique minipy "# leading comment\n\nx = 1\n\n# middle\n\ny = 2\n";
  expect_unique minipy "def f():\n    # only a comment then code\n    pass\n"

let test_minipy_indent_errors () =
  (match Lang.tokenize minipy "if x:\n    y = 1\n  z = 2\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an indentation error");
  match Lang.tokenize minipy "x = 1\n    y = 2\n" with
  | Error _ -> ()
  | Ok toks ->
    (* An unexpected indent lexes (INDENT is synthesized) but must not
       parse. *)
    (match P.parse (Lang.grammar minipy) toks with
    | P.Reject _ -> ()
    | _ -> Alcotest.fail "expected a parse reject for stray indent")

(* The generator names classes with a capitalised random word, which can
   spell None, True or False; it must rename those.  Seed 807150 at this
   size once produced [class True:]. *)
let test_minipy_class_names_not_keywords () =
  let renamed = ref 0 in
  List.iter
    (fun seed ->
      let src = Lang.generate minipy ~seed ~size:7816 in
      List.iter
        (fun line ->
          match Scanf.sscanf_opt line "class %[A-Za-z0-9_]:" Fun.id with
          | None -> ()
          | Some name ->
            check
              (Printf.sprintf "seed %d: class %s is not a keyword" seed name)
              false
              (List.mem name Minipy.keywords);
            if List.mem name [ "None_"; "True_"; "False_" ] then incr renamed)
        (String.split_on_char '\n' src);
      expect_unique minipy src)
    (List.init 5 (fun i -> 807148 + i));
  check "the seed range includes a renamed keyword" true (!renamed > 0)

let test_grammar_sizes_ordering () =
  (* MiniPython is the largest grammar, as Python 3 is in the paper. *)
  let size l = Grammar.num_productions (Lang.grammar l) in
  check "minipy largest" true
    (List.for_all (fun l -> size l <= size minipy) Registry.all);
  check "json smallest" true
    (List.for_all (fun l -> size l >= size json) Registry.all)

let test_all_lr_free () =
  List.iter
    (fun l ->
      check
        (l.Lang.name ^ " grammar is left-recursion-free")
        true
        (Left_recursion.check (Lang.grammar l) = Ok ()))
    Registry.all

let test_generator_determinism () =
  List.iter
    (fun l ->
      let a = Lang.generate l ~seed:42 ~size:50 in
      let b = Lang.generate l ~seed:42 ~size:50 in
      let c = Lang.generate l ~seed:43 ~size:50 in
      check (l.Lang.name ^ " deterministic") true (String.equal a b);
      check (l.Lang.name ^ " seed-sensitive") false (String.equal a c))
    Registry.all

let suite =
  [
    Alcotest.test_case "json cases" `Quick test_json_cases;
    Alcotest.test_case "json fig8 stats" `Quick test_json_fig8_stats;
    Alcotest.test_case "json generated corpus" `Quick (test_generated json);
    Alcotest.test_case "xml cases" `Quick test_xml_cases;
    Alcotest.test_case "xml non-LL(k) shape" `Quick test_xml_not_ll1_shape;
    Alcotest.test_case "xml generated corpus" `Quick (test_generated xml);
    Alcotest.test_case "dot cases" `Quick test_dot_cases;
    Alcotest.test_case "dot generated corpus" `Quick (test_generated dot);
    Alcotest.test_case "minipy cases" `Quick test_minipy_cases;
    Alcotest.test_case "minipy blank lines/comments" `Quick
      test_minipy_blank_lines_comments;
    Alcotest.test_case "minipy indent errors" `Quick test_minipy_indent_errors;
    Alcotest.test_case "minipy generated corpus" `Quick (test_generated minipy);
    Alcotest.test_case "minipy class names are not keywords" `Quick
      test_minipy_class_names_not_keywords;
    Alcotest.test_case "grammar size ordering" `Quick test_grammar_sizes_ordering;
    Alcotest.test_case "all grammars LR-free" `Quick test_all_lr_free;
    Alcotest.test_case "generators deterministic" `Quick
      test_generator_determinism;
  ]

let () = Alcotest.run "costar_langs" [ ("langs", suite) ]
