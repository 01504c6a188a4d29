(** The SLL prediction cache: a DFA per decision nonterminal (paper, §3.4),
    interned end to end.

    DFA states are interned canonical sets of SLL configurations.
    Configurations are all-int records ({!Config}), so a state key is the
    sorted array of its members' dense config ids, hashed once; transitions
    live in per-state terminal-indexed arrays, making the warm prediction
    step a pair of array reads ({!trans_get}).

    Unlike the Coq development's purely functional cache, this one is a
    mutable store (hashtables + growable arrays).  The API keeps the
    value-threading shape — mutators return [t] — so code written against
    the functional version still reads naturally, but the returned value is
    the same object: callers sharing a cache observe each other's additions.
    Cache contents never influence parse {e results}, only speed
    (property-tested), so this sharing is benign; use {!copy} where
    independent growth matters (e.g. cold-cache measurements).

    A cache is bound at {!create} to one grammar's {!Analysis.t} (whose
    {!Costar_grammar.Frames} table defines the config representation); using
    it with any other grammar is undefined. *)

open Costar_grammar
open Costar_grammar.Symbols

type t

type state_id = int

(** Precomputed facts about an interned DFA state. *)
type verdict =
  | V_empty  (** no live subparsers: reject *)
  | V_all_pred of int  (** all live subparsers carry this prediction *)
  | V_pending  (** live subparsers disagree: keep scanning *)

type info = {
  configs : Config.sll list;  (** canonical (sorted, deduped) *)
  verdict : verdict;
  accepting : int list;
      (** distinct predictions of configurations in accepting position *)
  decided_pred : Types.prediction;
      (** preboxed [Unique_pred] when [verdict] is [V_all_pred]; the warm
          fast path returns this shared value instead of allocating *)
  eof_pred : Types.prediction;
      (** preboxed prediction for input ending in this state (from
          [accepting]: reject, unique, or ambiguous) *)
}

(** A fresh, empty cache for this grammar analysis. *)
val create : Analysis.t -> t

(** The analysis this cache was created against.  A cache must only be
    consulted through this exact analysis: its configurations are expressed
    in the analysis's {!Costar_grammar.Frames} interner, whose spine ids
    depend on runtime interning order, so even another [Analysis.make] of
    the same grammar is incompatible.  Consumers given a cache without its
    analysis (the machine, the static analyzer) read it back from here. *)
val analysis : t -> Analysis.t

(** The frame interner this cache's configurations are expressed in. *)
val frames : t -> Frames.t

(** An independent cache with the same contents and ids; later additions to
    either do not affect the other. *)
val copy : t -> t

(** {1 Freezing and overlays (parallel batch parsing)}

    A {!frozen} value is a snapshot of a cache that is never mutated again.
    Under the OCaml memory model, data published before [Domain.spawn] and
    never written afterwards is safe to read from any number of domains
    without locks, so one snapshot serves a whole worker pool.  Each worker
    consults it through its own {!overlay} — an ordinary [t] that answers
    reads from the snapshot and records misses in a private layer — and
    the private layers are merged back into a master cache with {!absorb}
    between rounds, so warm-up compounds across batches.

    Because cache contents only ever influence parse {e speed}, never
    results (the differential property in [test/test_parallel.ml]), any
    interleaving of overlay growth and absorption is observationally
    benign. *)

type frozen

(** Snapshot a cache.  The argument remains usable and mutable; the
    snapshot is independent of it.  Raises [Invalid_argument] on an overlay
    (freeze the master cache the overlays were absorbed into instead). *)
val freeze : t -> frozen

(** A fresh mutable overlay over a frozen snapshot.  Reads fall through to
    the snapshot; writes stay in the overlay.  Many overlays may share one
    snapshot, each confined to a single domain. *)
val overlay : frozen -> t

(** [absorb dst src] merges everything recorded at [src]'s own layer into
    [dst] and returns [dst].  States are matched by configuration {e value}
    (exact, since every cache of one analysis shares the same frames
    interner), not by id, so [absorb] is idempotent and — up to id
    assignment, which is unobservable — order-independent. *)
val absorb : t -> t -> t

val frozen_num_states : frozen -> int
val frozen_num_transitions : frozen -> int

(** Number of DFA states interned at this cache's own layer: overlay-local
    states for an overlay, all states for a plain cache. *)
val overlay_new_states : t -> int

val num_states : t -> int
val num_transitions : t -> int

(** Number of distinct configurations assigned dense ids. *)
val num_configs : t -> int

(** Initial DFA state for a decision nonterminal, if already computed. *)
val find_init : t -> nonterminal -> state_id option

(** Raw variant of {!find_init} for the warm prediction loop: the initial
    state id, or [-1] if not yet computed. *)
val init_get : t -> nonterminal -> int

(** The shared preallocated [Unique_pred] box for a production index. *)
val unique_pred : t -> int -> Types.prediction

val add_init : t -> nonterminal -> state_id -> t

(** [intern cache configs] returns the id for this canonical configuration
    set, allocating (and precomputing {!info} for) a fresh state if new. *)
val intern : t -> Config.sll list -> t * state_id

val info : t -> state_id -> info

val find_trans : t -> state_id -> terminal -> state_id option

(** Raw transition read for the warm prediction loop: the successor state
    id, or [-1] if the transition has not been computed. *)
val trans_get : t -> state_id -> terminal -> int

(** Record a transition.  Idempotent: re-adding an existing transition
    neither changes the successor nor double-counts {!num_transitions}. *)
val add_trans : t -> state_id -> terminal -> state_id -> t

(** Memoized single-configuration closures.  The closure of a configuration
    set is the union of its members' closures, and identical configurations
    recur constantly across DFA states, so caching per-configuration results
    removes most closure work once the cache is warm.  Alongside the stable
    configurations each entry records whether the closure performed a
    stable-return fork (simulated return past the truncated stack, §3.5) —
    the spot where SLL overapproximates LL; the static analyzer reads the
    flag through {!Sll.closure_cached_ext}. *)
val find_closure :
  t -> Config.sll -> (Config.sll list * bool, Types.error) result option

val add_closure :
  t -> Config.sll -> (Config.sll list * bool, Types.error) result -> t

(** {1 Persistence}

    A cache — typically one fully populated offline by
    [Costar_predict_analysis.Analyze.analyze] — can be serialized and
    reloaded so parses start warm.  The format (version 2) is a validated
    plain-text header — magic, format version, grammar fingerprint from
    {!Costar_grammar.Grammar.fingerprint}, suffix-table digest from
    {!Costar_grammar.Frames.fingerprint} — followed by a marshalled decoded
    dump (configurations with frames expanded back to symbol lists, since
    interner ids are per-process).  Loading validates the header before any
    unmarshalling and re-interns states in id order, so it rejects wrong
    files, incompatible format versions (including v1 files from earlier
    builds), and caches built for any other grammar, and reproduces
    identical state ids otherwise. *)

(** Serialize a cache, binding it to the given grammar fingerprint. *)
val precompile : fingerprint:string -> t -> string

(** Deserialize a precompiled cache against [anl], validating magic,
    version, grammar fingerprint and suffix-table digest.  The error is a
    human-readable reason. *)
val of_precompiled : anl:Analysis.t -> fingerprint:string -> string -> (t, string) result

(** [save_precompiled ~fingerprint c file] writes {!precompile} to [file]. *)
val save_precompiled : fingerprint:string -> t -> string -> unit

(** [load_precompiled ~anl ~fingerprint file] reads and validates [file]. *)
val load_precompiled :
  anl:Analysis.t -> fingerprint:string -> string -> (t, string) result

(** {1 Flat cache images (format v3, layout version 5)}

    A second persistence format, designed for sharing rather than
    archiving: the frozen cache — state configurations, the dense
    terminal-indexed transition matrix, initial states — encoded as one
    contiguous int32-little-endian image with a validated header
    (magic, version, endian sentinel, grammar fingerprint, suffix-table
    digest, four-lane word checksum of the payload; word discipline shared
    with [costar tables] via {!Costar_grammar.Flatimg}).  Frame stacks are
    stored once, as a topologically ordered table of
    [(static frame id, tail index)] spines that configurations point
    into, mirroring the interner's hash-consing.

    {!load_image} maps the file read-only with [Unix.map_file] and serves
    predictions straight off the mapping: transition reads are single
    unboxed word loads against the page cache, state infos are decoded
    lazily per state on first touch (re-interning only the spines they
    reach, through a per-image memo), and N processes mapping the same
    file share one physical copy with zero deserialization — the
    substrate of the prefork serving tier (DESIGN.md §13).  Everything is
    bounds-and-range validated before any offset is trusted.  Closure
    memos are not stored; they are recomputed deterministically on
    demand. *)

type image_error =
  | Img_io of string  (** open/read/mmap failure, with the reason *)
  | Img_bad_magic
  | Img_bad_version of int  (** found this version on disk *)
  | Img_endian_mismatch
      (** byte-swapped mapping (big-endian host); the file itself may be
          fine — {!load_image} falls back to the heap decode *)
  | Img_truncated
  | Img_checksum_mismatch
  | Img_fingerprint_mismatch  (** built for a different grammar *)
  | Img_digest_mismatch  (** built against a different suffix table *)
  | Img_malformed of string  (** structural validation failed: what *)

val image_error_to_string : image_error -> string

(** Encode a cache (typically a fully analyzed one) as an image.  Raises
    [Invalid_argument] if a configuration holds a dynamically interned
    frame: only the static suffix table's ids are bound by the header. *)
val image_bytes : fingerprint:string -> t -> string

(** [save_image ~fingerprint c file] writes {!image_bytes} to [file]. *)
val save_image : fingerprint:string -> t -> string -> unit

(** Decode an in-memory image into an ordinary heap cache, re-interning
    states in id order (the differential oracle for {!load_image}). *)
val of_image_bytes :
  anl:Analysis.t -> fingerprint:string -> string -> (t, image_error) result

(** Map [file] read-only and return an image-backed cache serving reads
    from the mapping.  Falls back to the heap decode on a byte-swapped
    (big-endian) host, where zero-copy mapping is not available. *)
val load_image :
  anl:Analysis.t -> fingerprint:string -> string -> (t, image_error) result

(** Load [file] through the heap-decode path (same validation, no mmap). *)
val load_image_heap :
  anl:Analysis.t -> fingerprint:string -> string -> (t, image_error) result

(** Whether this cache serves reads from a mapped image. *)
val image_backed : t -> bool

(** Magic-sniffing loader for CLI [--cache] arguments: dispatches on the
    leading four bytes to {!load_image} or the v2 {!load_precompiled}.
    Only the v2 path reads the whole file onto the heap. *)
val load_any :
  anl:Analysis.t -> fingerprint:string -> string -> (t, string) result

(** Size of the image an image-backed cache reads through. *)
type image_stats = {
  img_bytes : int;  (** file size *)
  img_states : int;
  img_spines : int;  (** entries in the spine table *)
  img_configs : int;  (** configurations over all state blocks *)
}

(** [None] unless the cache is image-backed (see {!image_backed}). *)
val image_stats : t -> image_stats option
