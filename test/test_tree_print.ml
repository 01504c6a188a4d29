(* Tree printing: the specialised layout engine behind [Tree.to_string] and
   [Tree.output] must produce exactly the bytes of [Tree.pp] through Stdlib
   Format, on random trees (error nodes, empty and over-wide lexemes,
   chains nested past Format's max indent) and on real parse trees; and
   streaming a tree must not allocate per token. *)

open Costar_grammar
open Costar_langs
module P = Costar_core.Parser

let oracle g v = Fmt.str "%a" (Tree.pp g) v
let oracle_nl g v = Fmt.str "%a@." (Tree.pp g) v

let via_output g v =
  let path = Filename.temp_file "costar_tree" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Tree.output g oc v);
      In_channel.with_open_bin path In_channel.input_all)

let check_same what g v =
  let expected = oracle g v in
  let got = Tree.to_string g v in
  if got <> expected then
    Alcotest.failf "%s: to_string differs from Tree.pp\nexpected:\n%s\ngot:\n%s"
      what expected got;
  let expected = oracle_nl g v in
  let got = via_output g v in
  if got <> expected then
    Alcotest.failf "%s: output differs from Tree.pp @.\nexpected:\n%s\ngot:\n%s"
      what expected got

(* --- random trees --------------------------------------------------------- *)

let lexeme_chars = "abcdefghijklmnopqrstuvwxyz0123456789 _-+()[]{}'\"."

let random_lexeme st =
  (* Mostly short, sometimes empty, sometimes wider than the margin. *)
  let n =
    match Random.State.int st 10 with
    | 0 -> 0
    | 1 -> 60 + Random.State.int st 30
    | _ -> Random.State.int st 12
  in
  String.init n (fun _ ->
      lexeme_chars.[Random.State.int st (String.length lexeme_chars)])

(* Random shapes up to [max_depth] deep; [budget] caps the node count (the
   branching factor is above 1, so an uncapped tree would explode). *)
let random_tree g st ~max_depth =
  let n_nts = Grammar.num_nonterminals g in
  let n_terms = Grammar.num_terminals g in
  let budget = ref (50 + Random.State.int st 1500) in
  let leaf () =
    Tree.Leaf (Token.make (Random.State.int st n_terms) (random_lexeme st))
  in
  let rec go depth =
    decr budget;
    if depth >= max_depth || !budget <= 0 || Random.State.int st 4 = 0 then
      leaf ()
    else
      let width =
        match Random.State.int st 6 with
        | 0 -> 0
        | 1 -> 1 + Random.State.int st 12
        | _ -> 1 + Random.State.int st 3
      in
      let kids = List.init width (fun _ -> go (depth + 1)) in
      match Random.State.int st 12 with
      | 0 -> Tree.Error (None, kids)
      | 1 -> Tree.Error (Some (Symbols.T (Random.State.int st n_terms)), kids)
      | 2 -> Tree.Error (Some (Symbols.NT (Random.State.int st n_nts)), kids)
      | _ -> Tree.Node (Random.State.int st n_nts, kids)
  in
  go 0

(* A spine [depth] nodes deep, each node with a leaf before and after the
   child, so every level opens a box past the previous one. *)
let random_chain g st ~depth =
  let n_nts = Grammar.num_nonterminals g in
  let n_terms = Grammar.num_terminals g in
  let leaf () =
    Tree.Leaf (Token.make (Random.State.int st n_terms) (random_lexeme st))
  in
  let rec go d =
    if d = 0 then leaf ()
    else
      let kids =
        match Random.State.int st 3 with
        | 0 -> [ go (d - 1) ]
        | 1 -> [ leaf (); go (d - 1) ]
        | _ -> [ leaf (); go (d - 1); leaf () ]
      in
      Tree.Node (Random.State.int st n_nts, kids)
  in
  go depth

let test_random_trees () =
  List.iteri
    (fun li lang ->
      let g = Lang.grammar lang in
      let st = Random.State.make [| 17; li |] in
      for i = 1 to 400 do
        let max_depth = 1 + Random.State.int st 120 in
        check_same
          (Printf.sprintf "%s random tree %d" lang.Lang.name i)
          g
          (random_tree g st ~max_depth)
      done)
    Registry.all

let test_deep_chains () =
  List.iteri
    (fun li lang ->
      let g = Lang.grammar lang in
      let st = Random.State.make [| 23; li |] in
      for i = 1 to 50 do
        (* Max indent is 68 columns: go well past it. *)
        let depth = 40 + Random.State.int st 160 in
        check_same
          (Printf.sprintf "%s chain %d" lang.Lang.name i)
          g
          (random_chain g st ~depth)
      done)
    Registry.all

let test_small_cases () =
  let g = Lang.grammar Json.lang in
  let leaf s = Tree.Leaf (Token.make 0 s) in
  List.iter
    (fun v -> check_same "small case" g v)
    [
      leaf "";
      leaf (String.make 200 'x');
      Tree.Node (0, []);
      Tree.Error (None, []);
      Tree.Error (Some (Symbols.T 0), []);
      Tree.Error (None, [ leaf "skipped"; leaf "" ]);
      Tree.Node (0, List.init 100 (fun i -> leaf (string_of_int i)));
      (* Lexemes wider than the engine's 64 KB output chunk. *)
      Tree.Node (0, [ leaf "a"; leaf (String.make 200_000 'y'); leaf "b" ]);
    ]

(* --- raw token streams ------------------------------------------------------ *)

(* [Layout] on its own, against a fresh Format formatter fed the same
   calls: random streams of hov-1 boxes (unbalanced closes included),
   [break 1 0] and text, at the top level too, where Format's system box
   decides. *)
let test_random_streams () =
  let st = Random.State.make [| 31 |] in
  for i = 1 to 3000 do
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    let l = Layout.create () in
    for _ = 1 to Random.State.int st 400 do
      match Random.State.int st 10 with
      | 0 | 1 | 2 ->
        Format.pp_open_hovbox ppf 1;
        Layout.open_box l
      | 3 | 4 ->
        Format.pp_close_box ppf ();
        Layout.close_box l
      | 5 | 6 ->
        Format.pp_print_break ppf 1 0;
        Layout.break l
      | _ ->
        let pre = if Random.State.bool st then "(" else "" in
        let s = random_lexeme st in
        Format.pp_print_string ppf (pre ^ s);
        Layout.text3 l pre s ""
    done;
    Format.pp_print_flush ppf ();
    Layout.flush l ~newline:false;
    let expected = Buffer.contents buf and got = Layout.contents l in
    if got <> expected then
      Alcotest.failf "token stream %d differs\nexpected:\n%s\ngot:\n%s" i
        expected got
  done

(* A break forced onto the page while its scan-stack entry stays live,
   followed by [k] printed empty boxes: for some [k] the next break lands
   in the ring slot the first one had, and the size Format writes into the
   dead record must not reach it. *)
let test_stale_scan_entry () =
  for k = 0 to 200 do
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    let l = Layout.create () in
    let text s =
      Format.pp_print_string ppf s;
      Layout.text l s
    and open_box () =
      Format.pp_open_hovbox ppf 1;
      Layout.open_box l
    and close_box () =
      Format.pp_close_box ppf ();
      Layout.close_box l
    and break () =
      Format.pp_print_break ppf 1 0;
      Layout.break l
    in
    text (String.make 80 'a');
    break ();
    open_box ();
    text "";
    close_box ();
    for _ = 1 to k do
      open_box ();
      close_box ();
      text ""
    done;
    break ();
    text (String.make 100 'b');
    break ();
    text (String.make 40 'c');
    Format.pp_print_flush ppf ();
    Layout.flush l ~newline:false;
    let expected = Buffer.contents buf and got = Layout.contents l in
    if got <> expected then
      Alcotest.failf "k = %d differs\nexpected:\n%s\ngot:\n%s" k expected got
  done

(* --- real parse trees ----------------------------------------------------- *)

let parse_tree lang src =
  let g = Lang.grammar lang in
  match P.parse g (Lang.tokenize_exn lang src) with
  | P.Unique v | P.Ambig v -> v
  | P.Reject msg -> Alcotest.failf "%s: reject: %s" lang.Lang.name msg
  | P.Error e ->
    Alcotest.failf "%s: %s" lang.Lang.name
      (Costar_core.Types.error_to_string g e)

let lang_of_file f =
  match Filename.extension f with
  | ".json" -> Json.lang
  | ".xml" -> Xml.lang
  | ".dot" -> Dot.lang
  | ".py" -> Minipy.lang
  | ext -> Alcotest.failf "unknown extension %s" ext

let test_fuzz_corpus () =
  let files =
    Sys.readdir "fuzz" |> Array.to_list
    |> List.filter (fun f -> Filename.extension f <> ".md")
    |> List.sort compare
  in
  Alcotest.(check bool) "all four languages" true (List.length files >= 8);
  List.iter
    (fun f ->
      let lang = lang_of_file f in
      let src = In_channel.with_open_bin (Filename.concat "fuzz" f) In_channel.input_all in
      check_same f (Lang.grammar lang) (parse_tree lang src))
    files

let generated lang ~seed ~size = parse_tree lang (Lang.generate lang ~seed ~size)

let test_generated () =
  List.iter
    (fun lang ->
      List.iter
        (fun (seed, size) ->
          check_same
            (Printf.sprintf "%s generated seed %d size %d" lang.Lang.name seed size)
            (Lang.grammar lang)
            (generated lang ~seed ~size))
        [ (1, 20); (2, 120); (3, 400) ])
    Registry.all

let deep_json n = String.make n '[' ^ String.make n ']'

let test_deep_json () =
  check_same "10k-deep JSON array" (Lang.grammar Json.lang)
    (parse_tree Json.lang (deep_json 10_000))

(* --- allocation fence ----------------------------------------------------- *)

let test_alloc_fence () =
  Out_channel.with_open_bin Filename.null (fun oc ->
      List.iter
        (fun (lang, size) ->
          let g = Lang.grammar lang in
          let v = generated lang ~seed:5 ~size in
          let tokens = Tree.width v in
          Tree.output g oc v;
          let m0 = Gc.minor_words () in
          Tree.output g oc v;
          let words = Gc.minor_words () -. m0 in
          let per_token = words /. float_of_int tokens in
          Printf.printf "%s: %d tokens, %.3f words/token\n" lang.Lang.name tokens per_token;
          if per_token > 1. then
            Alcotest.failf "%s: Tree.output allocates %.2f minor words/token (%d tokens)"
              lang.Lang.name per_token tokens)
        [ (Json.lang, 10000); (Xml.lang, 4000); (Dot.lang, 8000); (Minipy.lang, 6000) ])

let () =
  Alcotest.run "tree_print"
    [
      ( "differential",
        [
          Alcotest.test_case "random trees" `Quick test_random_trees;
          Alcotest.test_case "chains past max indent" `Quick test_deep_chains;
          Alcotest.test_case "small cases" `Quick test_small_cases;
          Alcotest.test_case "raw token streams" `Quick test_random_streams;
          Alcotest.test_case "stale scan entry, wrapped queue" `Quick
            test_stale_scan_entry;
          Alcotest.test_case "fuzz corpus files" `Quick test_fuzz_corpus;
          Alcotest.test_case "generated documents" `Quick test_generated;
          Alcotest.test_case "10k-deep JSON array" `Quick test_deep_json;
        ] );
      ( "alloc",
        [ Alcotest.test_case "Tree.output allocates < 1 word/token" `Quick test_alloc_fence ] );
    ]
