(** Flat decision-table images: FIRST/FOLLOW/sync sets and per-decision SLL
    verdicts as one fingerprinted int-array artifact (`costar tables`).

    The on-disk format is a plain-text header — magic, format version,
    grammar fingerprint, payload word count, four-lane word checksum
    ({!Costar_grammar.Flatimg.checksum}) — followed by
    the payload as little-endian 32-bit words.  {!decode} validates the
    header, the checksum, and the full payload structure before returning;
    a truncated or corrupted image yields a typed {!error}, never an
    exception or a silently wrong table.  Decoding keeps the word array
    verbatim, so [save (load f)] is byte-identical to [f], and
    {!decisions} reconstructs records structurally identical to the live
    {!Analyze.analyze} output (the CI differential gate). *)

open Costar_grammar
open Costar_grammar.Symbols

type t

type error =
  | Bad_magic
  | Bad_version of string
  | Fingerprint_mismatch of { expected : string; found : string }
  | Truncated
  | Checksum_mismatch
  | Malformed of string

val error_to_string : error -> string

(** [build g flow r] packs the dataflow facts of [flow] and the decision
    verdicts of [r] (both for grammar [g]) into an image. *)
val build : Grammar.t -> Costar_flow.Flow.t -> Analyze.t -> t

val encode : t -> string
val decode : ?expect_fingerprint:string -> string -> (t, error) result
val save : t -> string -> unit
val load : ?expect_fingerprint:string -> string -> (t, error) result

val fingerprint : t -> string
val k_bound : t -> int

(** (n_terminals, n_nonterminals, n_productions, n_decisions). *)
val sizes : t -> int * int * int * int

val nullable : t -> nonterminal -> bool
val reachable : t -> nonterminal -> bool
val productive : t -> nonterminal -> bool

(** Sorted dense terminal ids. *)
val first : t -> nonterminal -> terminal list

val follow : t -> nonterminal -> terminal list
val sync : t -> nonterminal -> terminal list

(** Whether end-of-input may follow the nonterminal. *)
val follow_end : t -> nonterminal -> bool

(** The decision records reconstructed from the image, in the same order
    {!Analyze.analyze} emits them. *)
val decisions : t -> Analyze.decision list

(** Structural equality — the differential gate's definition of
    "bit-identical" for reconstructed decisions. *)
val same_decisions : Analyze.decision list -> Analyze.decision list -> bool

(** Human-readable rendering of the whole image. *)
val dump : Grammar.t -> t -> string
