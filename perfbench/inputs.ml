(* Seeded inputs for the three workloads, and the answers they must get.

   Every input is generated from the run's seed.  The expected verdicts
   never come from the parser under test: a clean file must parse
   [Unique] with a tree whose yield is the token buffer and which the
   Fig. 3 derivation checker accepts; a mutant's accept/reject answer is
   the Earley recognizer's. *)

open Costar_grammar
module Lang = Costar_langs.Lang
module P = Costar_core.Parser
module Mutate = Costar_cover.Mutate

let langs = Costar_langs.Registry.all
let lang_name (l : Lang.t) = l.Lang.name

(* --- the correctness gate ------------------------------------------------ *)

let attempted = ref 0
let failures : string list ref = ref []

(* When set, the first expected verdict handed out is inverted, so that a
   run demonstrates the gate failing. *)
let corrupt_expected = ref false

let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

let check ok fmt =
  incr attempted;
  Printf.ksprintf (fun m -> if not ok then failures := m :: !failures) fmt

(* --- generation ---------------------------------------------------------- *)

let log_spaced ~n ~lo ~hi =
  List.init n (fun i ->
      let t = float_of_int i /. float_of_int (max 1 (n - 1)) in
      int_of_float (exp (log lo +. (t *. (log hi -. log lo)))))

(* A generated source file of about [bytes] bytes.  The generators take
   a size in syntactic items, so the size is rescaled from the bytes a
   try produced until it lands within 2% (or eight tries are spent),
   which keeps each workload's volume steady from seed to seed. *)
let gen_bytes l ~seed ~bytes =
  let rec go size tries =
    let src = Lang.generate l ~seed ~size in
    let got = float_of_int (max 1 (String.length src)) in
    if tries = 0 || Float.abs ((got /. float_of_int bytes) -. 1.) <= 0.02 then src
    else go (max 1 (int_of_float (float_of_int size *. float_of_int bytes /. got))) (tries - 1)
  in
  go (max 1 (bytes / 4)) 8

let deep_json depth = String.make depth '[' ^ String.make depth ']'

(* Turn a token-level edit back into source text through the token
   buffer's byte spans, so that the mutant can be written to a file. *)
let apply_token_edit src buf (e : Mutate.edit) =
  let st = Token_buf.start_ofs buf and en = Token_buf.end_ofs buf in
  let len = String.length src in
  let sub a b = String.sub src a (b - a) in
  try
    match e with
    | Mutate.Token_delete i -> sub 0 (st i) ^ sub (en i) len
    | Mutate.Token_dup i -> sub 0 (en i) ^ " " ^ sub (st i) (en i) ^ sub (en i) len
    | Mutate.Token_swap i when en i <= st (i + 1) ->
      sub 0 (st i) ^ sub (st (i + 1)) (en (i + 1)) ^ sub (en i) (st (i + 1))
      ^ sub (st i) (en i) ^ sub (en (i + 1)) len
    | Mutate.Token_truncate k when k < Token_buf.length buf -> sub 0 (st k)
    | _ -> src
  with Invalid_argument _ -> src

let mutant l rng src =
  let buf = Lang.tokenize_buf_exn l src in
  match Mutate.derive rng ~source:src ~tokens:(Token_buf.to_tokens buf) with
  | Mutate.Source (s, _) -> s
  | Mutate.Tokens (_, e) -> apply_token_edit src buf e

(* --- files and their oracle answers ------------------------------------- *)

type file = {
  lang : Lang.t;
  path : string;  (** where a CLI child reads it, relative to the checkout *)
  src : string;
  mutant : bool;
  tokens : int;  (** 0 when the scanner rejects the file *)
  expect_ok : bool;
  expect_print : Digest.t option;
      (** digest of the verified tree as [costar parse] prints it *)
}

(* The oracle's parsers are its own, so that checking inputs never warms
   the prediction caches that a measurement will use. *)
let oracle_parsers = Hashtbl.create 4

let oracle_parser l =
  match Hashtbl.find_opt oracle_parsers (lang_name l) with
  | Some p -> p
  | None ->
    let p = P.make (Lang.grammar l) in
    Hashtbl.add oracle_parsers (lang_name l) p;
    p

(* Check a tree the parser produced against the independent answers:
   its yield must be the token buffer and the derivation checker must
   accept it. *)
let tree_verifies g buf t =
  let toks = Token_buf.to_tokens buf in
  List.equal Token.equal (Tree.yield t) toks && Derivation.recognizes_start g toks t

let print_digest g t = Digest.string (Fmt.str "%a@." (Tree.pp g) t)

let first_flip () =
  if !corrupt_expected then begin
    corrupt_expected := false;
    true
  end
  else false

let make_file ?(print = false) ?(oracle = true) l ~path ~mutant src =
  let g = Lang.grammar l in
  let name = lang_name l in
  let buf = Lang.tokenize_buf l src in
  let tokens = match buf with Ok b -> Token_buf.length b | Error _ -> 0 in
  let expect_ok =
    if not mutant then begin
      if oracle then
        check
          (match buf with
          | Error _ -> false
          | Ok b -> (
            match P.run_buf (oracle_parser l) b with
            | P.Unique t -> tree_verifies g b t
            | _ -> false))
          "%s %s: generated file fails the lex/parse/derivation oracle" name path;
      true
    end
    else
      match Lang.tokenize l src with
      | Error _ -> false
      | Ok toks -> Costar_earley.Recognizer.accepts g toks
  in
  let expect_print =
    match buf with
    | Ok b when print && expect_ok -> (
      match P.run_buf (oracle_parser l) b with
      | (P.Unique t | P.Ambig t) when tree_verifies g b t -> Some (print_digest g t)
      | _ ->
        fail "%s %s: Earley accepts but no verified tree" name path;
        None)
    | _ -> None
  in
  let expect_ok = if first_flip () then not expect_ok else expect_ok in
  { lang = l; path; src; mutant; tokens; expect_ok; expect_print }

let write_files files =
  List.iter
    (fun f ->
      Util.mkdir_p (Filename.dirname f.path);
      Util.write_file f.path f.src)
    files

(* Mutants are derived from small clean bases and kept under 4 KB, so the
   cubic Earley oracle stays cheap. *)
let mutant_src l ~seed ~i ~bytes =
  let rng = Rng.split seed (7919 + i) in
  let s = mutant l rng (gen_bytes l ~seed:(seed + i) ~bytes) in
  if String.length s > 4096 then String.sub s 0 4096 else s

(* A mutant that lexes and that the Earley oracle rejects, the first of
   up to 50 draws: such a request always reaches the parser (and, with
   --cache, the image) and exits 2, whatever the seed. *)
let rejected_mutant_src l ~seed ~bytes =
  let g = Lang.grammar l in
  let rec go i =
    let s = mutant_src l ~seed ~i ~bytes in
    match Lang.tokenize l s with
    | Ok toks when not (Costar_earley.Recognizer.accepts g toks) -> s
    | _ when i >= 50 -> s
    | _ -> go (i + 1)
  in
  go 0

(* A seeded permutation, so mutants land among the clean files. *)
let shuffle ~seed xs =
  let rng = Rng.of_seed seed in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* --- the three workloads' inputs ---------------------------------------- *)

(* bigdoc: per language, documents log-spaced from 1 KB to 2 MB (minipy,
   about four times slower per token, to 150 KB), plus one [[[...]]] JSON
   document 10 000 deep.  Their oracle check is left to
   [Workloads.bigdoc_oracle], run after measuring: the yield lists it
   builds for a 2 MB document would otherwise set the heap peak. *)
let bigdoc ~work ~seed =
  let per_lang l =
    let hi = if lang_name l = "minipy" then 150_000. else 2_000_000. in
    List.mapi
      (fun i bytes ->
        let path = Printf.sprintf "%s/%s/d%02d" work (lang_name l) i in
        make_file ~oracle:false l ~path ~mutant:false
          (gen_bytes l ~seed:((seed * 100) + i) ~bytes))
      (log_spaced ~n:8 ~lo:1_000. ~hi)
  in
  List.concat_map per_lang langs
  @ [
      make_file ~oracle:false Costar_langs.Json.lang ~path:(work ^ "/json/deep") ~mutant:false
        (deep_json 10_000);
    ]

(* corpus: per language 160 clean files log-spaced over 1-64 KB and 40
   mutants, one file in five. *)
let corpus ~work ~seed =
  List.concat_map
    (fun l ->
      let name = lang_name l in
      let clean =
        List.mapi
          (fun i bytes ->
            (false, gen_bytes l ~seed:((seed * 1000) + i) ~bytes))
          (log_spaced ~n:160 ~lo:1_000. ~hi:64_000.)
      in
      let mutants =
        List.mapi
          (fun i bytes -> (true, mutant_src l ~seed:((seed * 1000) + 500) ~i ~bytes))
          (log_spaced ~n:40 ~lo:1_000. ~hi:3_500.)
      in
      List.mapi
        (fun k (mutant, src) ->
          make_file l ~path:(Printf.sprintf "%s/%s/f%03d" work name k) ~mutant src)
        (shuffle ~seed:(seed + Hashtbl.hash name) (clean @ mutants)))
    langs

(* oneshot: per language [n] files log-spaced over 1-16 KB, the smallest
   replaced by a rejected mutant, so that every seed sends the same
   volume and the same kinds of request. *)
let oneshot ~work ~seed ~n =
  List.concat_map
    (fun l ->
      let name = lang_name l in
      List.mapi
        (fun i bytes ->
          let path = Printf.sprintf "%s/%s/f%02d" work name i in
          if i = 0 then
            make_file ~print:true l ~path ~mutant:true
              (rejected_mutant_src l ~seed:((seed * 100) + 50) ~bytes)
          else
            make_file ~print:true l ~path ~mutant:false
              (gen_bytes l ~seed:((seed * 100) + i) ~bytes))
        (log_spaced ~n ~lo:1_000. ~hi:16_000.))
    langs
