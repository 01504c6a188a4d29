(* The three untraced workloads.  Each is a closed loop with one client:
   the next request is sent only when the previous one has completed. *)

open Costar_grammar
module Lang = Costar_langs.Lang
module P = Costar_core.Parser
module Cache = Costar_core.Cache
module Analyze = Costar_predict_analysis.Analyze
open Inputs

let isum = Util.isum

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* --- set-up -------------------------------------------------------------- *)

(* Ready every language's parser: grammar, parser and static cache, and
   the scanner (built by the first [tokenize_buf]).  With [images], also
   emit each language's v3 cache image into that directory. *)
let setup ?images () =
  List.iter
    (fun l ->
      let g = Lang.grammar l in
      ignore (P.base_cache (P.make g));
      ignore (Lang.tokenize_buf l "");
      Option.iter
        (fun dir ->
          let r = Analyze.analyze g in
          Cache.save_image ~fingerprint:(Grammar.fingerprint g) r.Analyze.cache
            (Filename.concat dir (lang_name l ^ ".img")))
        images)
    langs

(* One set-up sample: this program re-run with [--setup-probe], so that
   every sample starts from a fresh process image (the languages'
   grammars and scanners are lazy globals, built once per process). *)
let setup_sample ~scratch ?images () =
  let args = "--setup-probe" :: (match images with Some d -> [ "--images"; d ] | None -> []) in
  let pr = Util.run_proc ~scratch Sys.executable_name args in
  match float_of_string_opt (String.trim pr.Util.out) with
  | Some t when pr.Util.code = 0 -> t
  | _ -> failwith ("set-up probe failed: " ^ pr.Util.err)

(* A workload's measurement: a fixed number of rounds, then the metrics. *)
type plan = { rounds : int; round : int -> unit; finish : unit -> metric list }

(* Rounds per run.  The count is fixed by [seconds] and the nominal
   length of a round on a 2-CPU host, rather than by a clock read during
   the run: a time-cut loop would vary the sample count from run to run,
   and with it which input class the tail percentile falls in. *)
let rounds ~seconds ~nominal ~min_rounds =
  max min_rounds (int_of_float (Float.ceil (float_of_int seconds /. nominal)))

(* Latency metrics over per-request samples (seconds), both estimated
   with [Util.hd_quantile]. *)
let latency samples =
  let t, pct = Util.tail samples in
  let p50 = Util.hd_quantile 0.5 samples in
  Printf.printf "latency: %d requests, p50 %.3f ms, tail p%d %.3f ms\n"
    (List.length samples) (p50 *. 1e3) pct (t *. 1e3);
  [ m "latency_p50_ms" "ms" (p50 *. 1e3); m "latency_tail_ms" "ms" (t *. 1e3) ]

(* --- bigdoc -------------------------------------------------------------- *)

(* A long-lived in-process parser per language, fed whole documents:
   source bytes -> [Lang.tokenize_buf] -> [Parser.run_buf]. *)
let bigdoc ~seconds ~docs =
  let parsers = List.map (fun l -> (lang_name l, P.make (Lang.grammar l))) langs in
  let parse f =
    let p = List.assoc (lang_name f.lang) parsers in
    let buf = Lang.tokenize_buf_exn f.lang f.src in
    (buf, P.run_buf p buf)
  in
  let verify f (buf, r) =
    check
      (match r with
      | P.Unique t -> f.expect_ok && Tree.width t = Token_buf.length buf
      | _ -> not f.expect_ok)
      "bigdoc %s: verdict differs from the oracle" f.path
  in
  let bytes = float_of_int (isum (fun f -> String.length f.src) docs) in
  let tok = float_of_int (isum (fun f -> f.tokens) docs) in
  (* Each document's time is its fastest of the rounds (min-of-samples):
     on a shared host, neighbours slow it by up to half for tens of
     seconds at a time, and the first round, which fills the prediction
     caches, is never the fastest.  At least ten rounds, so that each
     document's samples span more than one such stretch. *)
  let best = Array.make (List.length docs) infinity in
  let words = ref [] in
  let round _ =
    Gc.full_major ();
    let minor0, promoted0, _ = Gc.counters () in
    List.iteri
      (fun i f ->
        let res, t = Util.timed (fun () -> parse f) in
        verify f res;
        best.(i) <- Float.min best.(i) t)
      docs;
    let minor1, promoted1, _ = Gc.counters () in
    words := (minor1 -. minor0, promoted1 -. promoted0) :: !words
  in
  let finish () =
    let peak = Util.words_mb (float_of_int (Gc.quick_stat ()).Gc.top_heap_words) in
    let wall = Array.fold_left ( +. ) 0. best in
    let med f = Util.median (List.map f !words) in
    [
      m "throughput_mb_s" "MB/s" (bytes /. wall /. 1e6);
      m "ns_per_token" "ns/token" (wall /. tok *. 1e9);
      m "minor_words_per_token" "words/token" (med fst /. tok);
      m "promoted_words_per_token" "words/token" (med snd /. tok);
      m "peak_heap_mb" "MB" peak;
    ]
    @ latency (Array.to_list best)
  in
  { rounds = rounds ~seconds ~nominal:2.5 ~min_rounds:10; round; finish }

(* The full oracle over bigdoc's documents, run after measuring so that
   its allocation stays out of the peak-heap figure. *)
let bigdoc_oracle docs =
  List.iter
    (fun f ->
      let buf = Lang.tokenize_buf_exn f.lang f.src in
      match P.run_buf (oracle_parser f.lang) buf with
      | P.Unique t ->
        check (tree_verifies (Lang.grammar f.lang) buf t)
          "bigdoc %s: tree fails the yield/derivation oracle" f.path
      | _ -> check false "bigdoc %s: no unique parse" f.path)
    docs

(* --- CLI children ---------------------------------------------------------- *)

type child_stats = { wall : float; bytes : int; tokens : int; gc : Util.gc_report }

let child_stats ~files (pr : Util.proc) what =
  let gc =
    match Util.gc_report pr.Util.err with
    | Some g -> g
    | None ->
      fail "%s: no GC report on stderr" what;
      { Util.minor = 0.; promoted = 0.; top_heap_words = 0. }
  in
  {
    wall = pr.Util.wall;
    bytes = isum (fun (f : file) -> String.length f.src) files;
    tokens = isum (fun (f : file) -> f.tokens) files;
    gc;
  }

(* End-to-end metrics over CLI children.  Each request (a key) is sent
   several times; its time is its fastest (min-of-samples, as for bigdoc's
   documents).  Throughput, time and allocation per token are over the
   distinct requests; the heap peak is the largest child's. *)
let cli_metrics (samples : (string * child_stats) list) =
  let best = Hashtbl.create 64 in
  List.iter
    (fun (k, c) ->
      match Hashtbl.find_opt best k with
      | Some b when b.wall <= c.wall -> ()
      | _ -> Hashtbl.replace best k c)
    samples;
  let best = Hashtbl.fold (fun _ c acc -> c :: acc) best [] in
  let tot f = Util.fsum f best in
  let tokens = float_of_int (isum (fun c -> c.tokens) best) in
  [
    m "throughput_mb_s" "MB/s" (tot (fun c -> float_of_int c.bytes) /. tot (fun c -> c.wall) /. 1e6);
    m "ns_per_token" "ns/token" (tot (fun c -> c.wall) /. tokens *. 1e9);
    m "minor_words_per_token" "words/token" (tot (fun c -> c.gc.Util.minor) /. tokens);
    m "promoted_words_per_token" "words/token" (tot (fun c -> c.gc.Util.promoted) /. tokens);
    m "peak_heap_mb" "MB"
      (Util.words_mb (List.fold_left (fun acc c -> Float.max acc c.gc.Util.top_heap_words) 0. best));
  ]
  @ latency (List.map (fun c -> c.wall) best)

(* --- corpus -------------------------------------------------------------- *)

(* [costar batch] prints one diagnostic header per failure,
   "PATH:LINE:COL: SEVERITY[CODE]: ...", followed by indented notes. *)
let diag_codes out =
  List.filter_map
    (fun line ->
      match String.index_opt line ':', String.index_opt line '[' with
      | Some c, Some b when line <> "" && line.[0] <> ' ' && b + 2 < String.length line ->
        Some (String.sub line 0 c, String.sub line (b + 1) 4)
      | _ -> None)
    (String.split_on_char '\n' out)

(* Per language, one [costar batch -q --recover DIR] at the CLI's default
   parallelism and tier. *)
let corpus ~costar ~scratch ~seconds ~files =
  let by_lang =
    List.map (fun l -> (l, List.filter (fun f -> f.lang == l) files)) langs
  in
  let request (l, fs) =
    let dir = Filename.dirname (List.hd fs).path in
    let pr =
      Util.run_proc ~env:Util.gc_env ~scratch costar
        [ "batch"; "-q"; "--recover"; "--lang"; lang_name l; dir ]
    in
    let codes = diag_codes pr.Util.out in
    let any_reject = ref false in
    List.iter
      (fun f ->
        let got = List.filter (fun (p, _) -> p = f.path) codes in
        let p_coded = List.exists (fun (_, c) -> c.[0] = 'P') got in
        if not f.expect_ok then any_reject := true;
        check
          (if f.expect_ok then got = [] else p_coded)
          "corpus %s: expected %s, batch reported %d diagnostics" f.path
          (if f.expect_ok then "accept" else "reject with a P-code")
          (List.length got))
      fs;
    check
      (List.for_all (fun (p, _) -> List.exists (fun f -> f.path = p) fs) codes
      && pr.Util.code = if !any_reject then 1 else 0)
      "corpus %s: batch exited %d" dir pr.Util.code;
    child_stats ~files:fs pr ("batch " ^ dir)
  in
  let samples = ref [] in
  {
    rounds = rounds ~seconds ~nominal:5.0 ~min_rounds:2;
    round =
      (fun _ ->
        List.iter (fun (l, fs) -> samples := (lang_name l, request (l, fs)) :: !samples) by_lang);
    finish = (fun () -> cli_metrics !samples);
  }

(* --- oneshot ------------------------------------------------------------- *)

(* Files per language.  Every round requests each json, xml and dot file
   but only one minipy file (in turn): minipy's requests cost 20-50 times
   more, and min-of-samples needs several samples of every request (at
   least eight rounds, so at least two of each minipy request).  With four
   files the 32 requests put the tail percentile inside the dot-with-image
   group and the median inside the small-file group, not on a boundary
   between groups. *)
let oneshot_files = 4

let oneshot ~costar ~scratch ~images ~seconds ~files =
  let request f image =
    let args =
      [ "parse"; "--lang"; lang_name f.lang ]
      @ (if image then [ "--cache"; Filename.concat images (lang_name f.lang ^ ".img") ]
         else [])
      @ [ f.path ]
    in
    let pr = Util.run_proc ~env:Util.gc_env ~scratch costar args in
    let has_p_code =
      List.exists (fun (_, c) -> c.[0] = 'P') (diag_codes pr.Util.out)
    in
    check
      (if f.expect_ok then
         pr.Util.code = 0
         && (f.expect_print = None
            || f.expect_print = Some (Digest.string pr.Util.out))
       else pr.Util.code = 2 && has_p_code)
      "oneshot %s%s: expected %s, got exit %d" f.path
      (if image then " (image)" else "")
      (if f.expect_ok then "the verified tree" else "exit 2 with a P-code")
      pr.Util.code;
    ((f.path ^ if image then " image" else ""), child_stats ~files:[ f ] pr ("parse " ^ f.path))
  in
  let samples = ref [] in
  {
    rounds = rounds ~seconds ~nominal:2.4 ~min_rounds:8;
    round =
      (fun i ->
        List.iter
          (fun l ->
            let fs = List.filter (fun f -> f.lang == l) files in
            let fs = if lang_name l = "minipy" then [ List.nth fs (i mod oneshot_files) ] else fs in
            List.iter
              (fun f ->
                let plain = request f false in
                let imaged = request f true in
                samples := imaged :: plain :: !samples)
              fs)
          langs);
    finish = (fun () -> cli_metrics !samples);
  }
