(* The traced run: per-layer numbers for one workload's inputs.

   Spans are recorded from the benchmark's own files around each call
   into a layer's public functions; nothing inside the program is
   instrumented beyond the existing [Instr] counters, which are switched
   on in this run only.  Machine and tree construction share one span
   ([Parser.run_buf]) until the program has internal spans. *)

open Costar_grammar
module Lang = Costar_langs.Lang
module P = Costar_core.Parser
module Cache = Costar_core.Cache
module Instr = Costar_core.Instr
module Recover = Costar_recover.Recover
module Analyze = Costar_predict_analysis.Analyze
open Inputs

let span = Span.with_span

(* Facts ROADMAP item 1 recorded on this 2-CPU host before the benchmark
   existed, with the relative tolerance within which a measurement is
   said to reproduce them. *)
let tolerance = 0.35

let fact name ~reference ~measured ~unit_ =
  let ok = Float.abs ((measured /. reference) -. 1.) <= tolerance in
  Printf.printf "fact %s: reference %.4g %s, measured %.4g %s: %s\n" name reference
    unit_ measured unit_
    (if ok then "reproduces" else "does not reproduce")

let unmeasured =
  [
    "core.predict.ll_calls is measured but reads 0: probes counted no LL \
     failover on clean or mutated input in any of the four languages; \
     exercising it needs a grammar whose SLL prediction conflicts, a \
     separate benchmark change";
    "machine steps and tree construction are timed together in the \
     Parser.run_buf span: separating them needs spans inside the program";
    "peak RSS of CLI children is not measured; their OCaml heap peak is \
     (peak_heap_mb, from the runtime's exit-time GC report)";
  ]

let median_of k f = Util.median (List.init k (fun _ -> f ()))

let run ~costar ~work ~scratch ~seed ~gen =
  let metrics = ref [] in
  let add name unit_ value = metrics := Workloads.m name unit_ value :: !metrics in
  (* Startup, in this fresh process: nothing has forced a grammar yet. *)
  let parsers =
    Span.phase "startup" (fun () ->
        List.map
          (fun l ->
            let lang = lang_name l in
            let g = span ~lang "Lang.grammar" (fun () -> Lang.grammar l) in
            let p =
              span ~lang "Parser.make" (fun () ->
                  let p = P.make g in
                  ignore (P.base_cache p);
                  p)
            in
            ignore (span ~lang "Lang.tokenize_buf" (fun () -> Lang.tokenize_buf l ""));
            (lang, p))
          langs)
  in
  let files : file list = gen () in
  let clean = List.filter (fun f -> not f.mutant) files in
  let parser f = List.assoc (lang_name f.lang) parsers in
  let engines = List.map (fun (lang, p) -> (lang, Recover.make p)) parsers in
  let engine f = List.assoc (lang_name f.lang) engines in
  let tok = float_of_int (Util.isum (fun f -> f.tokens) clean) in
  let per_request phase fs body =
    Span.phase phase (fun () ->
        List.iteri (fun i f -> Span.request ~lang:(lang_name f.lang) i (fun () -> body f)) fs)
  in
  let lex f = span ~lang:(lang_name f.lang) "Lang.tokenize_buf" (fun () -> Lang.tokenize_buf_exn f.lang f.src) in
  (* First contact: the workload meets parsers that hold only their static
     caches, so this is where prediction misses and interns happen. *)
  Instr.reset ();
  Instr.enabled := true;
  per_request "first_contact" clean (fun f ->
      let buf = lex f in
      ignore (span ~lang:(lang_name f.lang) "Parser.run_buf" (fun () -> P.run_buf (parser f) buf)));
  let c = Instr.cache_totals () in
  let hits_ratio h mi = Util.ratio (float_of_int h) (float_of_int (h + mi)) in
  add "core.cache.trans_hit_ratio" "ratio" (hits_ratio c.Instr.trans_hits c.Instr.trans_misses);
  add "core.cache.trans_misses" "count" (float_of_int c.Instr.trans_misses);
  add "core.cache.state_interns" "count" (float_of_int c.Instr.state_interns);
  add "core.cache.closure_hit_ratio" "ratio"
    (hits_ratio c.Instr.closure_hits c.Instr.closure_misses);
  (* The warm pipeline, untraced with Instr off, then traced with Instr
     on: the same loop twice, so that their ratio is the tracing
     overhead.  The untraced pass is also the sequential side of the
     parallel ratio. *)
  Instr.enabled := false;
  Gc.full_major ();
  let (), seq_s =
    Util.timed (fun () ->
        List.iter (fun f -> ignore (P.run_buf (parser f) (Lang.tokenize_buf_exn f.lang f.src))) clean)
  in
  Instr.reset ();
  Instr.enabled := true;
  Gc.full_major ();
  let lex_minor = ref 0. and parse_minor = ref 0. and parse_promoted = ref 0. in
  per_request "pipeline" clean (fun f ->
      let lang = lang_name f.lang in
      let buf =
        span ~lang "Lang.tokenize_buf" (fun () ->
            let m0 = Gc.minor_words () in
            let b = Lang.tokenize_buf_exn f.lang f.src in
            lex_minor := !lex_minor +. (Gc.minor_words () -. m0);
            b)
      in
      ignore
        (span ~lang "Parser.run_buf" (fun () ->
             let mi0, pr0, _ = Gc.counters () in
             let r = P.run_buf (parser f) buf in
             let mi1, pr1, _ = Gc.counters () in
             parse_minor := !parse_minor +. (mi1 -. mi0);
             parse_promoted := !parse_promoted +. (pr1 -. pr0);
             r)));
  let sll_calls, sll_look, ll_calls, _ = Instr.totals () in
  add "core.predict.sll_calls_per_token" "calls/token" (float_of_int sll_calls /. tok);
  add "core.predict.lookahead_per_call" "tokens/call"
    (Util.ratio (float_of_int sll_look) (float_of_int sll_calls));
  add "core.predict.ll_calls" "count" (float_of_int ll_calls);
  (* Delivery and recovery on clean input: printing the tree, and the
     recovery engine against the plain parser over the same word. *)
  per_request "delivery" clean (fun f ->
      let lang = lang_name f.lang in
      let w = Word.of_buf (lex f) in
      let r = span ~lang "Parser.run_word" (fun () -> P.run_word (parser f) w) in
      check (match r with P.Unique _ -> true | _ -> false) "traced %s: no unique parse" f.path;
      (match r with
      | P.Unique t ->
        ignore (span ~lang "Tree.to_string" (fun () -> Tree.to_string (Lang.grammar f.lang) t))
      | _ -> ());
      ignore (span ~lang "Recover.run_word" (fun () -> Recover.run_word (engine f) w)));
  (* Cold prediction: [Parser.run_cold] on parsers that hold only their
     static caches, against a warm [Parser.run] on the same token lists. *)
  let cold_parsers =
    List.map (fun l -> (lang_name l, let p = P.make (Lang.grammar l) in ignore (P.base_cache p); p)) langs
  in
  per_request "cold" clean (fun f ->
      let toks = Token_buf.to_tokens (lex f) in
      let lang = lang_name f.lang in
      ignore (span ~lang "Parser.run_cold" (fun () -> P.run_cold (List.assoc lang cold_parsers) toks));
      ignore (span ~lang "Parser.run" (fun () -> P.run (parser f) toks)));
  Instr.enabled := false;
  (* Recovery over the mutants that lex. *)
  let events = ref 0 and failing = ref 0 and mutant_tokens = ref 0 in
  let repairs = Hashtbl.create 8 in
  let lexing_mutants =
    List.filter_map
      (fun f ->
        match f.mutant, Lang.tokenize_buf f.lang f.src with
        | true, Ok buf -> Some (f, buf)
        | _ -> None)
      files
  in
  per_request "recovery" (List.map fst lexing_mutants) (fun f ->
      let buf = List.assq f lexing_mutants in
      mutant_tokens := !mutant_tokens + Token_buf.length buf;
      let o =
        span ~lang:(lang_name f.lang) "Recover.run_word" (fun () ->
            Recover.run_word (engine f) (Word.of_buf buf))
      in
      if o.Recover.events <> [] then incr failing;
      List.iter
        (fun e ->
          incr events;
          let k =
            match e.Recover.repair with
            | Recover.Inserted _ -> "insert"
            | Recover.Deleted -> "delete"
            | Recover.Dropped _ -> "drop"
            | Recover.Skipped _ -> "skip"
            | Recover.Closed _ -> "close"
            | Recover.Gave_up _ -> "gave_up"
          in
          Hashtbl.replace repairs k (1 + Option.value ~default:0 (Hashtbl.find_opt repairs k)))
        o.Recover.events);
  (* Machine steps and tree shape: counts, not timed. *)
  let steps = ref 0 and nodes = ref 0 and depth = ref 0 in
  List.iter
    (fun f ->
      let w = Word.of_buf (Lang.tokenize_buf_exn f.lang f.src) in
      match P.run_inspect_word (parser f) ~inspect:(fun _ -> incr steps) w with
      | P.Unique t ->
        decr steps;
        nodes := !nodes + Tree.size t;
        depth := max !depth (Tree.depth t)
      | _ -> check false "traced %s: no unique parse under inspection" f.path)
    clean;
  (* Delivery: the CLI's batch tier at its default parallelism over the
     clean files, against the in-process sequential pipeline. *)
  let clean_dir = Filename.concat work "clean" in
  let batch_files =
    List.map (fun f -> { f with path = Printf.sprintf "%s/%s/%s" clean_dir (lang_name f.lang) (Filename.basename f.path) }) clean
  in
  write_files batch_files;
  Span.phase "parallel" (fun () ->
      List.iter
        (fun l ->
          let lang = lang_name l in
          let pr =
            span ~lang "cli.batch" (fun () ->
                Util.run_proc ~scratch costar
                  [ "batch"; "-q"; "--lang"; lang; Filename.concat clean_dir lang ])
          in
          check (pr.Util.code = 0) "traced batch %s: exit %d" lang pr.Util.code)
        langs);
  (* Facts: a 2 MB flat JSON array, and deep [[[...]]] documents whose
     printing is measured separately from their parsing. *)
  let json = Costar_langs.Json.lang in
  let jp = List.assoc "json" parsers in
  let warm_words src =
    let run () = P.run_buf jp (Lang.tokenize_buf_exn json src) in
    ignore (run ());
    let mi0, pr0, _ = Gc.counters () in
    let r, t = Util.timed run in
    let mi1, pr1, _ = Gc.counters () in
    let n = float_of_int (Token_buf.length (Lang.tokenize_buf_exn json src)) in
    (r, t /. n *. 1e9, (mi1 -. mi0) /. n, (pr1 -. pr0) /. n)
  in
  let _, flat_ns, flat_minor, flat_promoted =
    warm_words (gen_bytes json ~seed:(seed + 17) ~bytes:2_000_000)
  in
  let deep =
    List.map
      (fun d ->
        let r, ns, _, _ = warm_words (deep_json d) in
        let print_s =
          match r with
          | P.Unique t -> snd (Util.timed (fun () -> Tree.to_string (Lang.grammar json) t))
          | _ -> check false "deep json %d: no unique parse" d; nan
        in
        (d, ns, print_s))
      [ 1_000; 10_000; 100_000 ]
  in
  (* Images: emission (in a child, so its ~2 GB peak for minipy leaves
     this process's heap alone), size, and load. *)
  let images = Filename.concat work "images" in
  Util.mkdir_p images;
  let img l = Filename.concat images (lang_name l ^ ".img") in
  Span.phase "images" (fun () ->
      List.iter
        (fun l ->
          let lang = lang_name l in
          let g = Lang.grammar l in
          let emit_s =
            span ~lang "Analyze.analyze+Cache.save_image" (fun () ->
                Util.in_child (fun () ->
                    snd
                      (Util.timed (fun () ->
                           Cache.save_image ~fingerprint:(Grammar.fingerprint g)
                             (Analyze.analyze g).Analyze.cache (img l)))))
          in
          add ("core.cache.image_emit_s." ^ lang) "s" emit_s;
          add ("core.cache.image_mb." ^ lang) "MB" (Util.file_mb (img l));
          let p = List.assoc lang parsers in
          add ("core.cache.image_load_ms." ^ lang) "ms"
            (1e3
            *. median_of 3 (fun () ->
                   snd
                     (Util.timed (fun () ->
                          span ~lang "Cache.load_image" (fun () ->
                              match
                                Cache.load_image ~anl:(P.analysis p)
                                  ~fingerprint:(Grammar.fingerprint g) (img l)
                              with
                              | Ok _ -> ()
                              | Error e ->
                                check false "image %s: %s" lang
                                  (Cache.image_error_to_string e)))))))
        langs);
  (* CLI start-up on a near-empty file, and minipy's with its image. *)
  let tiny = Filename.concat work "tiny" in
  Util.mkdir_p tiny;
  let cli_ms ?image l =
    let path = Filename.concat tiny (lang_name l) in
    Util.write_file path (Lang.generate l ~seed ~size:1);
    let args =
      [ "parse"; "--lang"; lang_name l ]
      @ (match image with Some i -> [ "--cache"; i ] | None -> [])
      @ [ path ]
    in
    1e3
    *. median_of 3 (fun () ->
           let pr = span ~lang:(lang_name l) "cli.parse" (fun () -> Util.run_proc ~scratch costar args) in
           check (pr.Util.code = 0) "startup %s: exit %d" (lang_name l) pr.Util.code;
           pr.Util.wall)
  in
  let startup = Span.phase "cli_startup" (fun () -> List.map (fun l -> (l, cli_ms l)) langs) in
  List.iter (fun (l, ms) -> add ("bin.costar.startup_ms." ^ lang_name l) "ms" ms) startup;
  let minipy = Costar_langs.Minipy.lang in
  let minipy_img_ms = Span.phase "cli_startup_image" (fun () -> cli_ms ~image:(img minipy) minipy) in
  (* Derived per-layer numbers. *)
  let selfs = Span.self_times () in
  let t ?phase ?lang name = Span.total ?phase ?lang ~name selfs in
  List.iter
    (fun l ->
      let lang = lang_name l in
      add ("grammar.build_ms." ^ lang) "ms" (1e3 *. t ~phase:"startup" ~lang "Lang.grammar");
      add ("core.parser_make_ms." ^ lang) "ms" (1e3 *. t ~phase:"startup" ~lang "Parser.make");
      add ("lex.compile_ms." ^ lang) "ms" (1e3 *. t ~phase:"startup" ~lang "Lang.tokenize_buf"))
    langs;
  let lex_s = t ~phase:"pipeline" "Lang.tokenize_buf" in
  let parse_s = t ~phase:"pipeline" "Parser.run_buf" in
  let recover_clean_s = t ~phase:"delivery" "Recover.run_word" in
  add "lex.ns_per_token" "ns/token" (lex_s /. tok *. 1e9);
  add "lex.minor_words_per_token" "words/token" (!lex_minor /. tok);
  add "lex.time_share" "ratio" (lex_s /. (lex_s +. parse_s));
  add "core.parse.ns_per_token" "ns/token" (parse_s /. tok *. 1e9);
  add "core.parse.minor_words_per_token" "words/token" (!parse_minor /. tok);
  add "core.parse.promoted_words_per_token" "words/token" (!parse_promoted /. tok);
  add "core.predict.cold_penalty_ns_per_token" "ns/token"
    ((t ~phase:"cold" "Parser.run_cold" -. t ~phase:"cold" "Parser.run") /. tok *. 1e9);
  add "core.machine.steps_per_token" "steps/token" (float_of_int !steps /. tok);
  add "grammar.tree.nodes_per_token" "nodes/token" (float_of_int !nodes /. tok);
  add "grammar.tree.max_depth" "count" (float_of_int !depth);
  add "grammar.tree.print_ns_per_token" "ns/token" (t ~phase:"delivery" "Tree.to_string" /. tok *. 1e9);
  let wall_s = t ~phase:"parallel" "cli.batch" in
  add "parallel.wall_s" "s" wall_s;
  add "parallel.seq_s" "s" seq_s;
  add "parallel.speedup" "ratio" (seq_s /. wall_s);
  add "recover.ns_per_token" "ns/token"
    ((recover_clean_s +. t ~phase:"recovery" "Recover.run_word")
    /. (tok +. float_of_int !mutant_tokens)
    *. 1e9);
  add "recover.events_per_file" "events/file"
    (Util.ratio (float_of_int !events) (float_of_int !failing));
  List.iter
    (fun k ->
      add ("recover.repairs." ^ k) "count"
        (float_of_int (Option.value ~default:0 (Hashtbl.find_opt repairs k))))
    [ "insert"; "delete"; "drop"; "skip"; "close"; "gave_up" ];
  add "recover.clean_overhead" "ratio" (recover_clean_s /. t ~phase:"delivery" "Parser.run_word");
  add "trace.overhead_ratio" "ratio" ((lex_s +. parse_s) /. seq_s);
  add "trace.layer_share" "ratio" (Span.layer_share selfs "pipeline");
  (* Facts and findings. *)
  let json_lex = t ~phase:"pipeline" ~lang:"json" "Lang.tokenize_buf" in
  let json_parse = t ~phase:"pipeline" ~lang:"json" "Parser.run_buf" in
  fact "minipy lexer DFA build" ~reference:330.
    ~measured:(1e3 *. t ~phase:"startup" ~lang:"minipy" "Lang.tokenize_buf")
    ~unit_:"ms";
  fact "JSON lexing share of lex+parse" ~reference:0.10
    ~measured:(json_lex /. (json_lex +. json_parse))
    ~unit_:"";
  fact "minipy v3 image size" ~reference:188. ~measured:(Util.file_mb (img minipy)) ~unit_:"MB";
  let minipy_ms = List.assq minipy startup in
  Printf.printf
    "fact minipy image-backed cold start slower than no image: %.0f ms with, %.0f ms without: %s\n"
    minipy_img_ms minipy_ms
    (if minipy_img_ms > minipy_ms then "reproduces" else "does not reproduce");
  fact "2 MB flat JSON minor words/token" ~reference:107. ~measured:flat_minor ~unit_:"words";
  fact "2 MB flat JSON promoted words/token" ~reference:31. ~measured:flat_promoted ~unit_:"words";
  Printf.printf "finding 2 MB flat JSON warm run_buf: %.0f ns/token\n" flat_ns;
  List.iter
    (fun (d, ns, print_s) ->
      Printf.printf "finding deep JSON depth %d: run_buf %.0f ns/token, Tree.to_string %.1f ms (%.0f ns/token)\n"
        d ns (print_s *. 1e3) (print_s /. float_of_int (2 * d) *. 1e9))
    deep;
  List.iter (fun u -> Printf.printf "unmeasured: %s\n" u) unmeasured;
  Span.write (Filename.concat work "spans.tsv") selfs;
  Printf.printf "spans: %d written to %s\n" (List.length selfs) (Filename.concat work "spans.tsv");
  List.rev !metrics
