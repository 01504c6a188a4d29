(* Theorems-as-tests for the v3 flat cache image (DESIGN.md §13).

   The format's contract, pinned here:

   - a frozen cache survives the encode/decode round trip with identical
     canonical content AND identical state ids (re-interning in id order,
     like v2);
   - the mmap-backed loader and the heap decoder are result-equivalent:
     parsers running over either cache — or over no cache at all — return
     byte-identical outcomes on all four bundled languages, including
     inputs the saved cache has never seen (exercising the image
     fallthrough, lazy per-state decode, and copy-on-write row seeding);
   - the loader survives hostile bytes: truncation at every prefix length
     and a flip of every single byte are rejected with a typed error,
     never an exception, never a silent acceptance;
   - the two persistence formats coexist: the sniffing loader dispatches
     v2 and v3 files correctly, and each loader rejects the other's
     format with a clear typed error. *)

open Costar_grammar
open Costar_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- canonical cache content (as in test_parallel) ---------------------- *)

type canon_config = int * Symbols.symbol list list * Config.sctx

let canon_state fr (info : Cache.info) : canon_config list =
  List.sort compare
    (List.map
       (fun (c : Config.sll) ->
         ( c.Config.s_pred,
           Frames.frames_of_spine fr c.Config.s_frames,
           c.Config.s_ctx ))
       info.Cache.configs)

let canon_of_cache g c =
  let fr = Cache.frames c in
  let n = Cache.num_states c in
  let states = Array.init n (fun sid -> canon_state fr (Cache.info c sid)) in
  let trans = ref [] in
  for sid = 0 to n - 1 do
    for a = 0 to Grammar.num_terminals g - 1 do
      match Cache.find_trans c sid a with
      | None -> ()
      | Some sid' -> trans := (states.(sid), a, states.(sid')) :: !trans
    done
  done;
  let inits = ref [] in
  for x = 0 to Grammar.num_nonterminals g - 1 do
    match Cache.find_init c x with
    | None -> ()
    | Some sid -> inits := (x, states.(sid)) :: !inits
  done;
  ( List.sort compare (Array.to_list states),
    List.sort compare !trans,
    List.sort compare !inits )

let same_result r1 r2 =
  match r1, r2 with
  | Parser.Unique t1, Parser.Unique t2 -> Tree.equal t1 t2
  | Parser.Ambig t1, Parser.Ambig t2 -> Tree.equal t1 t2
  | Parser.Reject m1, Parser.Reject m2 -> String.equal m1 m2
  | Parser.Error e1, Parser.Error e2 -> e1 = e2
  | _ -> false

let same_outcome o1 o2 =
  match o1, o2 with
  | Ok r1, Ok r2 -> same_result r1 r2
  | Error m1, Error m2 -> String.equal m1 m2
  | _ -> false

let langs = Costar_langs.[ Json.lang; Xml.lang; Dot.lang; Minipy.lang ]

let corpus_for l =
  let gen seed size = Costar_langs.Lang.generate l ~seed ~size in
  let whole =
    List.map
      (fun (s, n) -> gen s n)
      [ (1, 20); (2, 60); (3, 120); (4, 200); (5, 90); (6, 40); (7, 150) ]
  in
  let big = gen 9 160 in
  let truncated = String.sub big 0 (String.length big / 2) in
  let garbage = gen 10 30 ^ "\x01\x01" in
  Array.of_list (whole @ [ truncated; garbage ])

let tokenize_of_lang l s =
  Result.map Word.of_buf (Costar_langs.Lang.tokenize_buf l s)

(* A parser warmed on a slice of the corpus; its base cache is the image
   source.  Warming on a strict subset leaves uncomputed DFA regions, so
   the differential below also drives the image-extension paths. *)
let warmed_parser l k inputs =
  let p = Parser.make (Costar_langs.Lang.grammar l) in
  Array.iteri
    (fun i s ->
      if i < k then
        match tokenize_of_lang l s with
        | Ok w -> ignore (Parser.run_word p w)
        | Error _ -> ())
    inputs;
  p

let fingerprint_of l = Grammar.fingerprint (Costar_langs.Lang.grammar l)

let tmp_file suffix = Filename.temp_file "costar_image" suffix

(* --- round trip ---------------------------------------------------------- *)

let test_roundtrip_equals_freeze () =
  List.iter
    (fun l ->
      let name = l.Costar_langs.Lang.name in
      let g = Costar_langs.Lang.grammar l in
      let inputs = corpus_for l in
      let p = warmed_parser l (Array.length inputs) inputs in
      let c = Parser.base_cache p in
      let fp = fingerprint_of l in
      let bytes = Cache.image_bytes ~fingerprint:fp c in
      match Cache.of_image_bytes ~anl:(Parser.analysis p) ~fingerprint:fp bytes with
      | Error e ->
        Alcotest.failf "%s: round trip rejected: %s" name
          (Cache.image_error_to_string e)
      | Ok c' ->
        check_int
          (name ^ ": state count survives the round trip")
          (Cache.num_states c) (Cache.num_states c');
        (* Id-level equality: decode re-interns in id order, so every
           transition must match state id for state id. *)
        let ok = ref true in
        for sid = 0 to Cache.num_states c - 1 do
          for a = 0 to Grammar.num_terminals g - 1 do
            if Cache.trans_get c sid a <> Cache.trans_get c' sid a then
              ok := false
          done
        done;
        check (name ^ ": transition tables identical id-for-id") true !ok;
        check
          (name ^ ": canonical content survives the round trip")
          true
          (canon_of_cache g c = canon_of_cache g c'))
    langs

(* --- mmap-load = heap-load = no-cache differential ----------------------- *)

let test_mmap_heap_differential () =
  List.iter
    (fun l ->
      let name = l.Costar_langs.Lang.name in
      let inputs = corpus_for l in
      (* Save an image warmed on a strict subset of the corpus. *)
      let psrc = warmed_parser l 3 inputs in
      let fp = fingerprint_of l in
      let file = tmp_file ".img" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
        (fun () ->
          Cache.save_image ~fingerprint:fp (Parser.base_cache psrc) file;
          let expected =
            let p = Parser.make (Costar_langs.Lang.grammar l) in
            Array.map
              (fun s ->
                match tokenize_of_lang l s with
                | Error msg -> Error msg
                | Ok w -> Ok (Parser.run_word p w))
              inputs
          in
          let outcomes_with load kind =
            let p = Parser.make (Costar_langs.Lang.grammar l) in
            (match load ~anl:(Parser.analysis p) ~fingerprint:fp file with
            | Error e ->
              Alcotest.failf "%s: %s load failed: %s" name kind
                (Cache.image_error_to_string e)
            | Ok c -> Parser.set_base_cache p c);
            Array.map
              (fun s ->
                match tokenize_of_lang l s with
                | Error msg -> Error msg
                | Ok w -> Ok (Parser.run_word p w))
              inputs
          in
          let via_mmap = outcomes_with Cache.load_image "mmap" in
          let via_heap = outcomes_with Cache.load_image_heap "heap" in
          check
            (name ^ ": mmap-backed cache = no cache, result for result")
            true
            (Array.for_all2 same_outcome expected via_mmap);
          check
            (name ^ ": heap-decoded cache = no cache, result for result")
            true
            (Array.for_all2 same_outcome expected via_heap)))
    langs

let test_image_backed_flag () =
  let l = Costar_langs.Json.lang in
  let inputs = corpus_for l in
  let p = warmed_parser l 3 inputs in
  let fp = fingerprint_of l in
  let file = tmp_file ".img" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Cache.save_image ~fingerprint:fp (Parser.base_cache p) file;
      check "source cache is not image-backed" false
        (Cache.image_backed (Parser.base_cache p));
      match Cache.load_image ~anl:(Parser.analysis p) ~fingerprint:fp file with
      | Error e -> Alcotest.failf "load: %s" (Cache.image_error_to_string e)
      | Ok c ->
        check "mmap-loaded cache is image-backed" true (Cache.image_backed c));
  match
    Cache.of_image_bytes ~anl:(Parser.analysis p) ~fingerprint:fp
      (Cache.image_bytes ~fingerprint:fp (Parser.base_cache p))
  with
  | Error e -> Alcotest.failf "decode: %s" (Cache.image_error_to_string e)
  | Ok c -> check "heap-decoded cache is not image-backed" false
              (Cache.image_backed c)

(* --- hostile bytes -------------------------------------------------------- *)

(* A deliberately small image (one warmed decision grammar) so exhaustive
   prefix/flip sweeps stay fast. *)
let small_image () =
  let g =
    Grammar.define ~start:"S"
      [
        ( "S",
          [ [ Grammar.n "A"; Grammar.t "c" ]; [ Grammar.n "A"; Grammar.t "d" ] ]
        );
        ("A", [ [ Grammar.t "a"; Grammar.n "A" ]; [ Grammar.t "b" ] ]);
      ]
  in
  let p = Parser.make g in
  let fp = Grammar.fingerprint g in
  (* Warm the cache along a real parse so the image carries transitions. *)
  let tok name =
    match Grammar.terminal_of_name g name with
    | Some t -> Token.make ~line:1 ~col:1 t name
    | None -> assert false
  in
  ignore (Parser.run p [ tok "a"; tok "b"; tok "c" ]);
  (p, fp, Cache.image_bytes ~fingerprint:fp (Parser.base_cache p))

let test_truncation_rejected () =
  let p, fp, bytes = small_image () in
  let anl = Parser.analysis p in
  (match Cache.of_image_bytes ~anl ~fingerprint:fp bytes with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "whole image rejected: %s" (Cache.image_error_to_string e));
  for len = 0 to String.length bytes - 1 do
    match Cache.of_image_bytes ~anl ~fingerprint:fp (String.sub bytes 0 len) with
    | Ok _ -> Alcotest.failf "truncation to %d bytes accepted" len
    | Error _ -> ()
    | exception e ->
      Alcotest.failf "truncation to %d bytes escaped with %s" len
        (Printexc.to_string e)
  done

let test_byte_flips_rejected () =
  let p, fp, bytes = small_image () in
  let anl = Parser.analysis p in
  for i = 0 to String.length bytes - 1 do
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    match Cache.of_image_bytes ~anl ~fingerprint:fp (Bytes.to_string b) with
    | Ok _ -> Alcotest.failf "flip of byte %d accepted" i
    | Error _ -> ()
    | exception e ->
      Alcotest.failf "flip of byte %d escaped with %s" i (Printexc.to_string e)
  done

let test_wrong_fingerprint_rejected () =
  let p, fp, bytes = small_image () in
  match
    Cache.of_image_bytes ~anl:(Parser.analysis p)
      ~fingerprint:(fp ^ "nope") bytes
  with
  | Error Cache.Img_fingerprint_mismatch -> ()
  | Error e ->
    Alcotest.failf "expected fingerprint mismatch, got %s"
      (Cache.image_error_to_string e)
  | Ok _ -> Alcotest.fail "wrong fingerprint accepted"

(* --- forged structure ------------------------------------------------------ *)

(* Word-level surgery on an image.  [reseal] recomputes the payload
   checksum, so a forgery gets past the checksum and has to be caught by
   the structural walk. *)
let word_at s i = Flatimg.le_word s (4 * i)
let set_word b i v = Bytes.set_int32_le b (4 * i) (Int32.of_int v)

let payload_at s = 7 + ((word_at s 3 + 3) / 4) + ((word_at s 4 + 3) / 4)

let reseal b =
  let s = Bytes.to_string b in
  let at = payload_at s in
  set_word b 6
    (Flatimg.checksum
       (Flatimg.words_of_le_string s ~pos:(4 * at) ~count:(word_at s 5)))

(* Word offsets of the spine count, the spine table and the config blocks,
   following the layout documented in [Cache]. *)
let spine_layout s =
  let at = payload_at s in
  let n_terms = word_at s at
  and n_nts = word_at s (at + 1)
  and n_states = word_at s (at + 2) in
  let n_spines_at = at + 4 + n_nts + (n_states * n_terms) + n_states in
  let n_spines = word_at s n_spines_at in
  (n_spines_at, n_spines, n_spines_at + 1 + (2 * n_spines))

let test_forged_structure_rejected () =
  let p, fp, bytes = small_image () in
  let anl = Parser.analysis p in
  let n_spines_at, n_spines, data_at = spine_layout bytes in
  check "the small image shares at least one spine" true (n_spines >= 1);
  check "state 0 carries a configuration" true (word_at bytes data_at >= 1);
  let spines_at = n_spines_at + 1 in
  let pay_end = String.length bytes / 4 in
  let forge what edits =
    let b = Bytes.of_string bytes in
    List.iter (fun (i, v) -> set_word b i v) edits;
    reseal b;
    match Cache.of_image_bytes ~anl ~fingerprint:fp (Bytes.to_string b) with
    | Error (Cache.Img_malformed _) -> ()
    | Error e ->
      Alcotest.failf "%s: expected a malformed-image error, got %s" what
        (Cache.image_error_to_string e)
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | exception e ->
      Alcotest.failf "%s: escaped with %s" what (Printexc.to_string e)
  in
  forge "spine tail not below its own index" [ (spines_at + 1, 0) ];
  forge "dynamic frame id"
    [ (spines_at, Frames.num_static_frames (Analysis.frames anl)) ];
  forge "config spine index out of range" [ (data_at + 3, n_spines) ];
  forge "spine count overruns the payload"
    [ (n_spines_at, ((pay_end - spines_at) / 2) + 1) ];
  forge "negative spine count" [ (n_spines_at, -1) ]

(* Earlier layouts: version 3 spelled frame stacks out per configuration,
   version 4 checksummed byte-serially with FNV-1a. *)
let test_old_version_rejected version () =
  let p, fp, bytes = small_image () in
  let b = Bytes.of_string bytes in
  set_word b 1 version;
  match
    Cache.of_image_bytes ~anl:(Parser.analysis p) ~fingerprint:fp
      (Bytes.to_string b)
  with
  | Error (Cache.Img_bad_version v) when v = version -> ()
  | Error e ->
    Alcotest.failf "expected bad version %d, got %s" version
      (Cache.image_error_to_string e)
  | Ok _ -> Alcotest.failf "version-%d header accepted" version

(* Only static frame ids are bound by the header's digest, so the encoder
   refuses a configuration whose stack holds a dynamically interned
   frame. *)
let test_dynamic_frame_refused () =
  let p, fp, _ = small_image () in
  let anl = Parser.analysis p in
  let fr = Analysis.frames anl in
  let x = Grammar.start (Analysis.grammar anl) in
  let f = Frames.frame_of_syms fr [ Symbols.NT x; NT x; NT x; NT x ] in
  check "the frame is dynamic" true (f >= Frames.num_static_frames fr);
  let c = Cache.create anl in
  let c, _ =
    Cache.intern c
      [ { Config.s_pred = 0; s_frames = Frames.cons fr f Frames.nil;
          s_ctx = Config.Ctx_accept } ]
  in
  match Cache.image_bytes ~fingerprint:fp c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "an image with a dynamic frame was emitted"

(* --- analyzer images ------------------------------------------------------ *)

(* The static analyzer's fully explored caches: the images `costar analyze
   --emit-image` writes.  dot's carries ~28.8k spines shared between
   ~41k configurations. *)
let analyzed =
  List.map
    (fun l ->
      ( l,
        lazy
          (Costar_predict_analysis.Analyze.analyze (Costar_langs.Lang.grammar l))
            .Costar_predict_analysis.Analyze.cache ))
    Costar_langs.[ Json.lang; Xml.lang; Dot.lang ]

let with_saved_image l c f =
  let file = tmp_file ".img" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Cache.save_image ~fingerprint:(fingerprint_of l) c file;
      f file)

let test_analyzer_images_id_for_id () =
  List.iter
    (fun (l, c) ->
      let c = Lazy.force c in
      let name = l.Costar_langs.Lang.name in
      let g = Costar_langs.Lang.grammar l in
      let fr = Cache.frames c in
      let frames_on_stacks = ref 0 in
      for sid = 0 to Cache.num_states c - 1 do
        List.iter
          (fun (cfg : Config.sll) ->
            frames_on_stacks :=
              !frames_on_stacks + Frames.spine_length fr cfg.Config.s_frames)
          (Cache.info c sid).Cache.configs
      done;
      with_saved_image l c (fun file ->
          List.iter
            (fun (kind, load) ->
              let p = Parser.make g in
              match load ~anl:(Parser.analysis p) ~fingerprint:(fingerprint_of l) file with
              | Error e ->
                Alcotest.failf "%s: %s load failed: %s" name kind
                  (Cache.image_error_to_string e)
              | Ok c' ->
                let fr' = Cache.frames c' in
                check_int
                  (Printf.sprintf "%s/%s: state count" name kind)
                  (Cache.num_states c) (Cache.num_states c');
                let same = ref true in
                for sid = 0 to Cache.num_states c - 1 do
                  if
                    canon_state fr (Cache.info c sid)
                    <> canon_state fr' (Cache.info c' sid)
                  then same := false;
                  for a = 0 to Grammar.num_terminals g - 1 do
                    if Cache.trans_get c sid a <> Cache.trans_get c' sid a then
                      same := false
                  done
                done;
                for x = 0 to Grammar.num_nonterminals g - 1 do
                  if Cache.init_get c x <> Cache.init_get c' x then same := false
                done;
                check
                  (Printf.sprintf "%s/%s: configurations, transitions and \
                                   initial states identical id for id"
                     name kind)
                  true !same;
                (* The mapped image's spine table stores each shared stack
                   suffix once. *)
                Option.iter
                  (fun st ->
                    check
                      (Printf.sprintf "%s: %d spines < %d stacked frames" name
                         st.Cache.img_spines !frames_on_stacks)
                      true
                      (st.Cache.img_spines < !frames_on_stacks))
                  (Cache.image_stats c'))
            [ ("mmap", Cache.load_image); ("heap", Cache.load_image_heap) ]))
    analyzed

(* [load_any] sniffs an image from its first word and maps it, so loading
   allocates far less heap than the file is long (it used to read the
   whole file into a string first). *)
let test_load_any_allocation () =
  let l = Costar_langs.Dot.lang in
  let c = Lazy.force (List.assoc l analyzed) in
  with_saved_image l c (fun file ->
      let size = (Unix.stat file).Unix.st_size in
      let p = Parser.make (Costar_langs.Lang.grammar l) in
      let anl = Parser.analysis p in
      let before = Gc.allocated_bytes () in
      (match Cache.load_any ~anl ~fingerprint:(fingerprint_of l) file with
      | Error msg -> Alcotest.failf "load_any: %s" msg
      | Ok c' -> check "load_any(image) is image-backed" true (Cache.image_backed c'));
      let allocated = Gc.allocated_bytes () -. before in
      check
        (Printf.sprintf "load_any allocates %.0f bytes < the %d-byte image"
           allocated size)
        true
        (allocated < float_of_int size))

(* --- format coexistence --------------------------------------------------- *)

let test_v2_and_v3_coexist () =
  let l = Costar_langs.Json.lang in
  let g = Costar_langs.Lang.grammar l in
  let inputs = corpus_for l in
  let p = warmed_parser l 3 inputs in
  let c = Parser.base_cache p in
  let anl = Parser.analysis p in
  let fp = fingerprint_of l in
  let v2 = tmp_file ".cache" in
  let v3 = tmp_file ".img" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ v2; v3 ])
    (fun () ->
      Cache.save_precompiled ~fingerprint:fp c v2;
      Cache.save_image ~fingerprint:fp c v3;
      (* The sniffing loader dispatches both formats. *)
      (match Cache.load_any ~anl ~fingerprint:fp v2 with
      | Error msg -> Alcotest.failf "load_any on v2: %s" msg
      | Ok c' ->
        check "load_any(v2) content = source" true
          (canon_of_cache g c = canon_of_cache g c'));
      (match Cache.load_any ~anl ~fingerprint:fp v3 with
      | Error msg -> Alcotest.failf "load_any on v3: %s" msg
      | Ok c' ->
        check "load_any(v3) is image-backed" true (Cache.image_backed c'));
      (* Each dedicated loader rejects the other format, cleanly. *)
      (match Cache.load_image ~anl ~fingerprint:fp v2 with
      | Error Cache.Img_bad_magic -> ()
      | Error e ->
        Alcotest.failf "v2 through image loader: expected bad magic, got %s"
          (Cache.image_error_to_string e)
      | Ok _ -> Alcotest.fail "v2 file accepted by the image loader");
      match Cache.load_precompiled ~anl ~fingerprint:fp v3 with
      | Error msg -> check "v3 through v2 loader mentions magic" true
                       (let affix = "magic" in
                        let n = String.length affix and m = String.length msg in
                        let rec go i =
                          i + n <= m && (String.sub msg i n = affix || go (i + 1))
                        in
                        go 0)
      | Ok _ -> Alcotest.fail "v3 file accepted by the v2 loader")

let () =
  Alcotest.run "image"
    [
      ( "round-trip",
        [
          Alcotest.test_case "decode = freeze, id for id" `Quick
            test_roundtrip_equals_freeze;
          Alcotest.test_case "image-backed flag" `Quick test_image_backed_flag;
        ] );
      ( "differential",
        [
          Alcotest.test_case "mmap = heap = no cache, four languages" `Quick
            test_mmap_heap_differential;
        ] );
      ( "hostile bytes",
        [
          Alcotest.test_case "every-prefix truncation rejected" `Quick
            test_truncation_rejected;
          Alcotest.test_case "every single-byte flip rejected" `Quick
            test_byte_flips_rejected;
          Alcotest.test_case "wrong fingerprint rejected" `Quick
            test_wrong_fingerprint_rejected;
          Alcotest.test_case "forged structure rejected as malformed" `Quick
            test_forged_structure_rejected;
          Alcotest.test_case "version-3 header rejected" `Quick
            (test_old_version_rejected 3);
          Alcotest.test_case "version-4 header rejected" `Quick
            (test_old_version_rejected 4);
          Alcotest.test_case "dynamic frame refused at encode" `Quick
            test_dynamic_frame_refused;
        ] );
      (* Suite labels stay within "hostile bytes"'s 13 characters: the
         widest label sets alcotest's name column, and a wider one would
         truncate the printed test names above. *)
      ( "analyzer",
        [
          Alcotest.test_case "json/xml/dot round-trip id for id, mmap and heap"
            `Quick test_analyzer_images_id_for_id;
          Alcotest.test_case "load_any allocates less than the image" `Quick
            test_load_any_allocation;
        ] );
      ( "coexistence",
        [
          Alcotest.test_case "v2 and v3 load side by side" `Quick
            test_v2_and_v3_coexist;
        ] );
    ]
