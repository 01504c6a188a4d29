(* The flat tables image (lib/analysis_predict/tables.ml): the differential
   gate of the `costar tables` subcommand as unit/property tests.

   - round-trip: decode(encode t) succeeds and re-encodes byte-equal;
   - reconstruction: decisions decoded from the image are structurally
     identical to the live analyzer's, and the bitset sections agree with
     the dataflow engine;
   - rejection: every truncation prefix and byte corruption yields a typed
     error (never an exception, never a silently wrong table), wrong-
     version and wrong-grammar images are refused by the header checks. *)

open Costar_grammar
module Flow = Costar_flow.Flow
module Bitset = Costar_flow.Bitset
module Analyze = Costar_predict_analysis.Analyze
module Tables = Costar_predict_analysis.Tables

let check = Alcotest.(check bool)

let build ?(k = Analyze.default_k) ?(oracle = true) g =
  let flow = Flow.make g in
  let r = Analyze.analyze ~k ~oracle g in
  (flow, r, Tables.build g flow r)

let lang name =
  match Costar_langs.Registry.find name with
  | Some l -> Costar_langs.Lang.grammar l
  | None -> Alcotest.failf "missing built-in language %s" name

let langs = [ "json"; "xml"; "dot"; "minipy" ]

let test_roundtrip () =
  List.iter
    (fun name ->
      let g = lang name in
      let _, _, t = build g in
      let bytes = Tables.encode t in
      match Tables.decode ~expect_fingerprint:(Grammar.fingerprint g) bytes with
      | Error e -> Alcotest.failf "%s: decode failed: %s" name
                     (Tables.error_to_string e)
      | Ok t' ->
        check (name ^ " byte-equal") true (Tables.encode t' = bytes);
        check (name ^ " fingerprint") true
          (Tables.fingerprint t' = Grammar.fingerprint g))
    langs

let test_decisions_identical () =
  List.iter
    (fun name ->
      let g = lang name in
      let _, r, t = build g in
      let t' = Result.get_ok (Tables.decode (Tables.encode t)) in
      check (name ^ " decisions") true
        (Tables.same_decisions (Tables.decisions t') r.Analyze.decisions))
    langs

let test_sections_agree () =
  List.iter
    (fun name ->
      let g = lang name in
      let flow, _, t = build g in
      let t = Result.get_ok (Tables.decode (Tables.encode t)) in
      for x = 0 to Grammar.num_nonterminals g - 1 do
        let ok_set what got want =
          if got <> Bitset.elements want then
            Alcotest.failf "%s: %s row differs on `%s`" name what
              (Names.nonterminal g x)
        in
        check "nullable" (Flow.nullable flow x) (Tables.nullable t x);
        check "reachable" (Flow.reachable flow x) (Tables.reachable t x);
        check "productive" (Flow.productive flow x) (Tables.productive t x);
        check "follow_end" (Flow.follow_end flow x) (Tables.follow_end t x);
        ok_set "first" (Tables.first t x) (Flow.first flow x);
        ok_set "follow" (Tables.follow t x) (Flow.follow flow x);
        ok_set "sync" (Tables.sync t x) (Flow.sync flow x)
      done)
    langs

(* Every proper prefix of a valid image must be rejected with a typed
   error.  Exhaustive on json (small); strided on the others. *)
let test_truncation_rejected () =
  List.iter
    (fun (name, stride) ->
      let g = lang name in
      let _, _, t = build g in
      let bytes = Tables.encode t in
      let n = String.length bytes in
      let len = ref 0 in
      while !len < n do
        (match Tables.decode (String.sub bytes 0 !len) with
        | Ok _ -> Alcotest.failf "%s: %d-byte prefix accepted" name !len
        | Error _ -> ());
        len := !len + stride
      done)
    [ ("json", 1); ("minipy", 97) ]

(* Flipping any byte must be rejected: header bytes break the header
   checks, payload bytes break the payload checksum.  (The fingerprint line
   is only validated against an expectation, so the decode passes one.) *)
let test_corruption_rejected () =
  let g = lang "json" in
  let _, _, t = build g in
  let bytes = Tables.encode t in
  let fp = Grammar.fingerprint g in
  let i = ref 0 in
  while !i < String.length bytes do
    let b = Bytes.of_string bytes in
    Bytes.set b !i (Char.chr (Char.code (Bytes.get b !i) lxor 0xff));
    (match Tables.decode ~expect_fingerprint:fp (Bytes.to_string b) with
    | Ok _ -> Alcotest.failf "corrupted byte %d accepted" !i
    | Error _ -> ());
    i := !i + 3
  done

let test_header_checks () =
  let g = lang "json" in
  let _, _, t = build g in
  let bytes = Tables.encode t in
  (* Wrong magic. *)
  (match Tables.decode ("not-a-tables-image\n" ^ bytes) with
  | Error Tables.Bad_magic -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  (* Wrong version: bump the second line. *)
  let nl1 = String.index bytes '\n' in
  let nl2 = String.index_from bytes (nl1 + 1) '\n' in
  let v2 =
    String.sub bytes 0 (nl1 + 1)
    ^ "99\n"
    ^ String.sub bytes (nl2 + 1) (String.length bytes - nl2 - 1)
  in
  (match Tables.decode v2 with
  | Error (Tables.Bad_version "99") -> ()
  | _ -> Alcotest.fail "bad version accepted");
  (* Format 1, the FNV-1a-checksummed predecessor, is refused by version. *)
  let v1 =
    String.sub bytes 0 (nl1 + 1)
    ^ "1\n"
    ^ String.sub bytes (nl2 + 1) (String.length bytes - nl2 - 1)
  in
  (match Tables.decode v1 with
  | Error (Tables.Bad_version "1") -> ()
  | _ -> Alcotest.fail "format-1 image accepted");
  (* Wrong grammar: decoding against another fingerprint. *)
  match
    Tables.decode ~expect_fingerprint:(Grammar.fingerprint (lang "xml")) bytes
  with
  | Error (Tables.Fingerprint_mismatch _) -> ()
  | _ -> Alcotest.fail "wrong fingerprint accepted"

(* Random grammars: round-trip byte-equal and decisions identical, with
   the oracle off and a small k to keep the analyzer cheap. *)
let prop_random_roundtrip =
  QCheck.Test.make ~count:100 ~name:"random grammars round-trip"
    (QCheck.make ~print:(Fmt.str "%a" Grammar.pp) Util.gen_grammar)
    (fun g ->
      let _, r, t = build ~k:3 ~oracle:false g in
      let bytes = Tables.encode t in
      match Tables.decode ~expect_fingerprint:(Grammar.fingerprint g) bytes with
      | Error _ -> false
      | Ok t' ->
        Tables.encode t' = bytes
        && Tables.same_decisions (Tables.decisions t') r.Analyze.decisions)

let suite =
  [
    Alcotest.test_case "round-trip byte-equal (4 langs)" `Quick test_roundtrip;
    Alcotest.test_case "decisions reconstruct identically" `Quick
      test_decisions_identical;
    Alcotest.test_case "bitset sections match the dataflow" `Quick
      test_sections_agree;
    Alcotest.test_case "every truncation rejected" `Quick
      test_truncation_rejected;
    Alcotest.test_case "corrupted bytes rejected" `Quick
      test_corruption_rejected;
    Alcotest.test_case "header checks" `Quick test_header_checks;
    QCheck_alcotest.to_alcotest prop_random_roundtrip;
  ]

let () = Alcotest.run "costar_tables" [ ("tables", suite) ]
