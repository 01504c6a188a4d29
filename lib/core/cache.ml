open Costar_grammar
open Costar_grammar.Symbols

type state_id = int

type verdict =
  | V_empty
  | V_all_pred of int
  | V_pending

type info = {
  configs : Config.sll list;
  verdict : verdict;
  accepting : int list;
  (* Preboxed verdicts for the warm prediction fast path, so deciding a
     state allocates nothing: [decided_pred] is the prediction when
     [verdict] is [V_all_pred] (a shared [Unique_pred] box), [eof_pred] the
     prediction when input ends in this state. *)
  decided_pred : Types.prediction;
  eof_pred : Types.prediction;
}

(* State keys: the sorted array of the member configurations' dense ids,
   hashed over its full length (the generic hash would inspect only a
   prefix). *)
module Key_tbl = Hashtbl.Make (struct
  type t = int array

  let equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec eq i = i >= n || (a.(i) = b.(i) && eq (i + 1)) in
    eq 0

  let hash a =
    let h = ref (Array.length a) in
    Array.iter (fun x -> h := (!h * 31) + x + 1) a;
    !h land max_int
end)

let no_row : int array = [||]
let dummy_info =
  {
    configs = [];
    verdict = V_empty;
    accepting = [];
    decided_pred = Types.Reject_pred;
    eof_pred = Types.Reject_pred;
  }
let dummy_cfg = { Config.s_pred = -1; s_frames = Frames.nil; s_ctx = Ctx_accept }

type closure_result = (Config.sll list * bool, Types.error) result

(* A validated flat cache image (DESIGN.md §13.2): one contiguous int32
   bigarray, typically an [Unix.map_file] view of an image file, so N
   processes share a single page-cache copy with zero deserialization.
   Offsets are absolute word indices into [i_words], admitted once by the
   structural validation walk in [validate_image]; hot reads afterwards use
   the unchecked [Flatimg.get_u].  The bigarray is never written. *)
type image = {
  i_words : Flatimg.i32;
  i_terms : int;  (** terminals per transition row *)
  i_states : int;  (** states stored in the image *)
  i_inits_at : int;  (** nonterminal -> initial state id, or -1 *)
  i_trans_at : int;  (** dense [i_states * i_terms] successor matrix *)
  i_index_at : int;  (** state -> config-block offset (relative to data) *)
  i_spines_at : int;  (** [(frame id, tail index)] pairs, tails first *)
  i_data_at : int;  (** per-state configuration blocks *)
  i_configs : int;  (** configurations over all blocks *)
  (* Image spine index -> runtime spine id in the loading analysis's
     [Frames] interner, or -1 while unresolved.  Filled tail-first on
     first touch ([image_spine]), never eagerly: a parse touches a small
     fraction of the spines a whole analyzed image carries. *)
  i_memo : int array;
}

type t = {
  (* The analysis this cache was created against.  Configurations are
     expressed in its [Frames] interner, whose spine ids depend on runtime
     interning order — so a cache must only ever be consulted through this
     exact analysis, never through another [Analysis.make] of the same
     grammar.  Consumers holding a foreign cache (the machine, the static
     analyzer) read the analysis back from here. *)
  anl : Analysis.t;
  frames : Frames.t;
  n_terms : int;
  (* One shared [Unique_pred ix] box per production, so the warm path and
     single-alternative decisions never re-allocate their verdict. *)
  uniq : Types.prediction array;
  (* Two-level layering for parallel batch parsing: an overlay cache holds a
     [base] — a frozen snapshot that is never mutated again and is therefore
     safe to consult from many domains without locks — and records only the
     entries discovered past it.  Id spaces are global: config ids below
     [base_cfgs] and state ids below [base_states] belong to the base;
     [cfgs]/[keys]/[infos] are indexed by [id - base_*], while [closures]
     and [trans] are global-indexed so an overlay can attach a closure memo
     or transition row to a base-range id it does not own.  A plain cache is
     the degenerate overlay: [base = None], both offsets 0. *)
  base : t option;
  base_cfgs : int;
  base_states : int;
  (* dense ids for configurations; [closures] is the per-configuration
     closure memo, indexed by (global) config id *)
  cfg_ids : int Config.Sll_tbl.t;
  mutable cfgs : Config.sll array;
  mutable closures : closure_result option array;
  mutable n_cfgs : int;
  (* DFA states: interned sorted-config-id keys, info per state, and a
     lazily allocated terminal-indexed transition row per state *)
  state_ids : state_id Key_tbl.t;
  mutable keys : int array array;
  mutable infos : info array;
  mutable trans : int array array;
  mutable n_states : int;
  mutable n_trans : int; (* transitions added at THIS layer *)
  inits : int array; (* nonterminal -> initial state id, or -1 *)
  (* A third read layer below [base]: an mmapped v3 image.  Reads that miss
     both the own layer and the base fall through to the image's dense
     rows; state infos are decoded from the image lazily, per state, on
     first touch.  [None] for ordinary caches. *)
  img : image option;
}

let create anl =
  let g = Analysis.grammar anl in
  {
    anl;
    frames = Analysis.frames anl;
    n_terms = Grammar.num_terminals g;
    uniq =
      Array.init
        (Array.length (Grammar.prods g))
        (fun ix -> Types.Unique_pred ix);
    base = None;
    base_cfgs = 0;
    base_states = 0;
    cfg_ids = Config.Sll_tbl.create 256;
    cfgs = Array.make 256 dummy_cfg;
    closures = Array.make 256 None;
    n_cfgs = 0;
    state_ids = Key_tbl.create 64;
    keys = Array.make 64 no_row;
    infos = Array.make 64 dummy_info;
    trans = Array.make 64 no_row;
    n_states = 0;
    n_trans = 0;
    inits = Array.make (max 1 (Grammar.num_nonterminals g)) (-1);
    img = None;
  }

let frames c = c.frames
let analysis c = c.anl
let num_states c = c.n_states

let rec num_transitions c =
  c.n_trans + match c.base with None -> 0 | Some b -> num_transitions b

let num_configs c = c.n_cfgs

let grow arr count fill =
  if count < Array.length arr then arr
  else begin
    let bigger = Array.make (2 * max 1 (Array.length arr)) fill in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  end

let config_id c cfg =
  match Config.Sll_tbl.find_opt c.cfg_ids cfg with
  | Some id -> id
  | None -> (
    let in_base =
      match c.base with
      | None -> None
      | Some b -> Config.Sll_tbl.find_opt b.cfg_ids cfg
    in
    match in_base with
    | Some id -> id
    | None ->
      let id = c.n_cfgs in
      let off = id - c.base_cfgs in
      c.cfgs <- grow c.cfgs off dummy_cfg;
      c.closures <- grow c.closures id None;
      c.cfgs.(off) <- cfg;
      Config.Sll_tbl.add c.cfg_ids cfg id;
      c.n_cfgs <- id + 1;
      id)

let cfg_of_id c id =
  if id < c.base_cfgs then
    match c.base with
    | Some b -> b.cfgs.(id)
    | None -> assert false
  else c.cfgs.(id - c.base_cfgs)

(* The closure memo for a global config id, consulting the overlay layer
   first (it may shadow a base-range id the base never computed). *)
let closure_of_id c id =
  match if id < Array.length c.closures then c.closures.(id) else None with
  | Some _ as r -> r
  | None -> (
    match c.base with
    | Some b when id < c.base_cfgs -> b.closures.(id)
    | _ -> None)

(* The runtime spine for image spine index [i] (-1 = nil).  Unresolved
   entries are walked down to the nearest resolved tail (or nil) and
   re-interned back up through the shared frames interner, which
   serializes internally.  Memo writes are idempotent ints: two domains
   racing on one entry both store the same hash-consed id, so the race
   costs a duplicate [Frames.cons] and nothing else. *)
let image_spine frames (im : image) i =
  let memo = im.i_memo in
  let rec down i pending =
    if i < 0 then (Frames.nil, pending)
    else
      let s = Array.unsafe_get memo i in
      if s >= 0 then (s, pending)
      else down (Flatimg.get_u im.i_words (im.i_spines_at + (2 * i) + 1)) (i :: pending)
  in
  let resolved, pending = down i [] in
  List.fold_left
    (fun tail j ->
      let f = Flatimg.get_u im.i_words (im.i_spines_at + (2 * j)) in
      let s = Frames.cons frames f tail in
      Array.unsafe_set memo j s;
      s)
    resolved pending

(* Decode one state's configuration block: [n_configs], then 3 words per
   configuration — prediction, context code, spine index. *)
let image_state_configs frames (im : image) sid =
  let words = im.i_words in
  let at = im.i_data_at + Flatimg.get_u words (im.i_index_at + sid) in
  let acc = ref [] in
  for k = Flatimg.get_u words at - 1 downto 0 do
    let b = at + 1 + (3 * k) in
    let ctx = Flatimg.get_u words (b + 1) in
    acc :=
      {
        Config.s_pred = Flatimg.get_u words b;
        s_frames = image_spine frames im (Flatimg.get_u words (b + 2));
        s_ctx = (if ctx < 0 then Config.Ctx_accept else Config.Ctx_nt ctx);
      }
      :: !acc
  done;
  !acc

(* Raw variants for the warm prediction fast path: no option/box per call. *)
let rec init_get c x =
  let s = c.inits.(x) in
  if s >= 0 then s
  else
    match c.base with
    | Some b -> init_get b x
    | None -> (
      match c.img with
      | Some im -> Flatimg.get_u im.i_words (im.i_inits_at + x)
      | None -> -1)

let find_init c x =
  let s = init_get c x in
  if s < 0 then None else Some s

let unique_pred c ix = c.uniq.(ix)

let add_init c x sid =
  c.inits.(x) <- sid;
  c

let is_accepting (cfg : Config.sll) =
  match cfg.s_ctx with
  | Config.Ctx_accept -> Frames.spine_is_nil cfg.s_frames
  | Config.Ctx_nt _ -> false

let compute_info uniq configs =
  let verdict =
    match Config.preds_of_sll configs with
    | [] -> V_empty
    | [ p ] -> V_all_pred p
    | _ -> V_pending
  in
  let accepting = Config.preds_of_sll (List.filter is_accepting configs) in
  let decided_pred =
    match verdict with
    | V_all_pred p -> uniq.(p)
    | V_empty | V_pending -> Types.Reject_pred
  in
  let eof_pred =
    match accepting with
    | [] -> Types.Reject_pred
    | [ p ] -> uniq.(p)
    | p :: _ -> Types.Ambig_pred p
  in
  { configs; verdict; accepting; decided_pred; eof_pred }

let intern c configs =
  let key = Array.of_list (List.map (config_id c) configs) in
  Array.sort (fun (a : int) b -> compare a b) key;
  let known =
    match Key_tbl.find_opt c.state_ids key with
    | Some _ as sid -> sid
    | None -> (
      match c.base with
      | None -> None
      | Some b -> Key_tbl.find_opt b.state_ids key)
  in
  match known with
  | Some sid -> (c, sid)
  | None ->
    let sid = c.n_states in
    let off = sid - c.base_states in
    c.keys <- grow c.keys off no_row;
    c.infos <- grow c.infos off dummy_info;
    c.trans <- grow c.trans sid no_row;
    c.keys.(off) <- key;
    c.infos.(off) <- compute_info c.uniq configs;
    Key_tbl.add c.state_ids key sid;
    c.n_states <- sid + 1;
    Instr.record_state_intern ();
    (c, sid)

let rec info c sid =
  if sid < 0 || sid >= c.n_states then
    invalid_arg "Cache.info: unknown state id"
  else if sid < c.base_states then
    match c.base with
    | Some b -> info b sid
    | None -> assert false
  else begin
    let off = sid - c.base_states in
    let inf = c.infos.(off) in
    if inf != dummy_info then inf
    else
      match c.img with
      | Some im when sid < im.i_states ->
        (* Lazy per-state decode from the image, memoized in [infos].  Two
           domains may race here and decode the same state twice; both
           results are equal immutable records (and OCaml publishes
           initializing writes safely), so whichever pointer a reader
           observes is correct — the race costs a duplicate decode, not
           correctness. *)
        let inf = compute_info c.uniq (image_state_configs c.frames im sid) in
        c.infos.(off) <- inf;
        inf
      | _ -> inf
  end

(* The warm-path transition read: -1 when absent.  [find_trans] wraps it in
   an option for ordinary callers.  An overlay row, once created, shadows
   the whole base row for its state (copy-on-write in [add_trans]), so the
   fallthrough fires only while a state has no overlay row at all. *)
let rec trans_get c sid a =
  let row = Array.unsafe_get c.trans sid in
  if row != no_row then Array.unsafe_get row a
  else
    match c.base with
    | Some b when sid < c.base_states -> trans_get b sid a
    | _ -> (
      (* Third layer: the mmapped image's dense row — one unboxed word
         read, straight off the page cache. *)
      match c.img with
      | Some im when sid < im.i_states ->
        Flatimg.get_u im.i_words (im.i_trans_at + (sid * im.i_terms) + a)
      | _ -> -1)

let find_trans c sid a =
  let s = trans_get c sid a in
  if s < 0 then None else Some s

let add_trans c sid a sid' =
  let row =
    let row = c.trans.(sid) in
    if row != no_row then row
    else begin
      (* Copy-on-write: seed the fresh row from the layered read view
         (base row, image row, or image behind the base), so once
         installed it fully shadows the layers below for reads. *)
      let row =
        Array.init (max 1 c.n_terms) (fun t ->
            if t < c.n_terms then trans_get c sid t else -1)
      in
      c.trans.(sid) <- row;
      row
    end
  in
  (* Idempotent: re-adding an existing transition (e.g. [prepare ~deep]
     overlapping a later parse of the same state) must not double-count. *)
  if row.(a) < 0 then begin
    row.(a) <- sid';
    c.n_trans <- c.n_trans + 1
  end;
  c

let find_closure c cfg =
  let id =
    match Config.Sll_tbl.find_opt c.cfg_ids cfg with
    | Some _ as id -> id
    | None -> (
      match c.base with
      | None -> None
      | Some b -> Config.Sll_tbl.find_opt b.cfg_ids cfg)
  in
  match id with
  | None -> None
  | Some id -> closure_of_id c id

let add_closure c cfg result =
  let id = config_id c cfg in
  c.closures <- grow c.closures id None;
  c.closures.(id) <- Some result;
  c

(* An independent cache seeded with this one's contents: subsequent
   additions to either copy do not affect the other.  State/config ids are
   preserved.  (Info records and key arrays are immutable once written and
   are shared; transition rows are mutable and are duplicated.  An
   overlay's base is immutable by construction and stays shared.) *)
let copy c =
  {
    c with
    cfg_ids = Config.Sll_tbl.copy c.cfg_ids;
    cfgs = Array.copy c.cfgs;
    closures = Array.copy c.closures;
    state_ids = Key_tbl.copy c.state_ids;
    keys = Array.copy c.keys;
    infos = Array.copy c.infos;
    trans =
      Array.map (fun row -> if row == no_row then row else Array.copy row) c.trans;
    inits = Array.copy c.inits;
  }

(* {2 Freezing and overlays}

   [freeze] snapshots a plain cache into a value that is never mutated
   again; under the OCaml memory model, data that is published before
   [Domain.spawn] and never written afterwards can be read from any number
   of domains without synchronization, so one frozen snapshot serves a
   whole worker pool.  Each worker consults the snapshot through its own
   [overlay] — an ordinary [t] whose misses extend a private layer — and
   the layers are merged back into a master cache with [absorb] between
   rounds, so warm-up compounds.

   [absorb] is deliberately value-level: it re-interns the source's config
   lists into the destination rather than assuming compatible state
   numbering.  Config values ([s_pred], [s_frames], [s_ctx]) are meaningful
   process-wide because every cache of one analysis shares the same
   {!Costar_grammar.Frames} interner, so this is exact, and it makes
   [absorb] idempotent and content-level order-independent. *)

type frozen = t

let freeze c =
  match c.base with
  | Some _ -> invalid_arg "Cache.freeze: cannot freeze an overlay"
  | None -> copy c

let frozen_num_states (fz : frozen) = fz.n_states
let frozen_num_transitions (fz : frozen) = num_transitions fz

let overlay (fz : frozen) =
  {
    anl = fz.anl;
    frames = fz.frames;
    n_terms = fz.n_terms;
    uniq = fz.uniq;
    base = Some fz;
    base_cfgs = fz.n_cfgs;
    base_states = fz.n_states;
    cfg_ids = Config.Sll_tbl.create 64;
    cfgs = Array.make 64 dummy_cfg;
    closures = Array.make (fz.n_cfgs + 64) None;
    n_cfgs = fz.n_cfgs;
    state_ids = Key_tbl.create 64;
    keys = Array.make 64 no_row;
    infos = Array.make 64 dummy_info;
    trans = Array.make (fz.n_states + 64) no_row;
    n_states = fz.n_states;
    n_trans = 0;
    inits = Array.make (Array.length fz.inits) (-1);
    (* Reads that miss the overlay fall to [base], which consults its own
       image if it has one — the overlay needs no direct image pointer. *)
    img = None;
  }

let overlay_new_states c = c.n_states - c.base_states

let absorb dst src =
  if dst == src then dst
  else begin
    (* src state id -> dst state id, by re-interning config values. *)
    let map = Hashtbl.create 64 in
    let map_sid sid =
      match Hashtbl.find_opt map sid with
      | Some d -> d
      | None ->
        let _, d = intern dst (info src sid).configs in
        Hashtbl.add map sid d;
        d
    in
    (* Replay every transition materialized at src's own layer.  Rows for
       base-range states were seeded from the base row (copy-on-write), so
       some replayed entries are base facts the destination already has —
       harmless, [add_trans] is idempotent. *)
    for sid = 0 to src.n_states - 1 do
      let row = src.trans.(sid) in
      if row != no_row then
        for a = 0 to Array.length row - 1 do
          let s' = row.(a) in
          if s' >= 0 then ignore (add_trans dst (map_sid sid) a (map_sid s'))
        done
    done;
    Array.iteri
      (fun x s ->
        if s >= 0 && init_get dst x < 0 then ignore (add_init dst x (map_sid s)))
      src.inits;
    (* Closure memos recorded at src's layer.  Results are config values,
       valid verbatim in dst (shared frames interner); recomputation is
       deterministic, so overwriting an existing entry rewrites it with an
       equal value. *)
    for id = 0 to src.n_cfgs - 1 do
      if id < Array.length src.closures then
        match src.closures.(id) with
        | None -> ()
        | Some r -> ignore (add_closure dst (cfg_of_id src id) r)
    done;
    dst
  end

(* Persistence.

   The on-disk format is a plain-text header — magic line, format version,
   grammar fingerprint, suffix-table digest — followed by a marshalled
   {e decoded} dump: configurations are stored with their frames expanded
   back to symbol lists, because interner ids are a per-process artifact.
   Loading re-interns states in state-id order against the target
   analysis's own suffix table, reproducing identical ids.  The header is
   validated *before* any unmarshalling happens, so a wrong file (or a
   cache built for a different grammar or by an incompatible build) is
   rejected without ever feeding untrusted bytes to [Marshal]. *)

type portable_config = {
  p_pred : int;
  p_frames : symbol list list;
  p_ctx : Config.sctx;
}

type portable = {
  p_states : portable_config list array; (* state id -> configurations *)
  p_trans : (int * int * int) list; (* (sid, terminal, sid') *)
  p_inits : (int * int) list; (* (nonterminal, sid) *)
  p_closures :
    (portable_config * (portable_config list * bool, Types.error) result) list;
}

let magic = "costar/sll-dfa"
let format_version = 2

let decode_config c (cfg : Config.sll) =
  {
    p_pred = cfg.s_pred;
    p_frames = Frames.frames_of_spine c.frames cfg.s_frames;
    p_ctx = cfg.s_ctx;
  }

let encode_config c p =
  {
    Config.s_pred = p.p_pred;
    s_frames = Frames.spine_of_frames c.frames p.p_frames;
    s_ctx = p.p_ctx;
  }

let to_portable c =
  let p_states =
    Array.init c.n_states (fun sid ->
        List.map (decode_config c) (info c sid).configs)
  in
  let p_trans = ref [] in
  for sid = c.n_states - 1 downto 0 do
    for a = c.n_terms - 1 downto 0 do
      let s = trans_get c sid a in
      if s >= 0 then p_trans := (sid, a, s) :: !p_trans
    done
  done;
  let p_inits = ref [] in
  for x = Array.length c.inits - 1 downto 0 do
    if init_get c x >= 0 then p_inits := (x, init_get c x) :: !p_inits
  done;
  let p_closures = ref [] in
  for id = c.n_cfgs - 1 downto 0 do
    match closure_of_id c id with
    | None -> ()
    | Some r ->
      let r' =
        Result.map
          (fun (stable, forked) -> (List.map (decode_config c) stable, forked))
          r
      in
      p_closures := (decode_config c (cfg_of_id c id), r') :: !p_closures
  done;
  {
    p_states;
    p_trans = !p_trans;
    p_inits = !p_inits;
    p_closures = !p_closures;
  }

let of_portable anl p =
  let c = create anl in
  Array.iteri
    (fun expected_sid pcfgs ->
      let configs = List.map (encode_config c) pcfgs in
      let _, sid = intern c configs in
      if sid <> expected_sid then
        invalid_arg "Cache.of_portable: inconsistent state numbering")
    p.p_states;
  List.iter (fun (sid, a, sid') -> ignore (add_trans c sid a sid')) p.p_trans;
  List.iter (fun (x, sid) -> ignore (add_init c x sid)) p.p_inits;
  List.iter
    (fun (pcfg, r) ->
      let r' =
        Result.map
          (fun (stable, forked) -> (List.map (encode_config c) stable, forked))
          r
      in
      ignore (add_closure c (encode_config c pcfg) r'))
    p.p_closures;
  c

let precompile ~fingerprint c =
  Printf.sprintf "%s\n%d\n%s\n%s\n%s" magic format_version fingerprint
    (Frames.fingerprint c.frames)
    (Marshal.to_string (to_portable c) [])

let of_precompiled ~anl ~fingerprint s =
  let next_line pos =
    match String.index_from_opt s pos '\n' with
    | None -> None
    | Some i -> Some (String.sub s pos (i - pos), i + 1)
  in
  match next_line 0 with
  | Some (m, p1) when m = magic -> (
    match next_line p1 with
    | None -> Error "corrupt prediction cache (missing format version)"
    | Some (v, p2) -> (
      if v <> string_of_int format_version then
        Error
          (Printf.sprintf
             "unsupported prediction-cache format version %s (this build \
              reads version %d); regenerate it with `costar analyze \
              --emit-cache`"
             v format_version)
      else
        match next_line p2 with
        | None -> Error "corrupt prediction cache (missing fingerprint)"
        | Some (fp, p3) -> (
          if fp <> fingerprint then
            Error
              "prediction cache was built for a different grammar \
               (fingerprint mismatch); regenerate it with `costar analyze \
               --emit-cache`"
          else
            match next_line p3 with
            | None -> Error "corrupt prediction cache (missing suffix-table digest)"
            | Some (fd, p4) ->
              if fd <> Frames.fingerprint (Analysis.frames anl) then
                Error
                  "prediction cache was built against a different suffix \
                   table (incompatible build); regenerate it with `costar \
                   analyze --emit-cache`"
              else (
                match (Marshal.from_string s p4 : portable) with
                | exception _ ->
                  Error
                    "corrupt prediction cache (truncated or damaged payload)"
                | p -> (
                  (* The payload unmarshalled but may still be structurally
                     bogus (fuzzed or bit-rotted dump): rebuilding can then
                     fail anywhere inside re-interning, so no exception at
                     all may escape as anything but a typed error. *)
                  match of_portable anl p with
                  | exception Invalid_argument msg -> Error msg
                  | exception e ->
                    Error
                      (Printf.sprintf
                         "corrupt prediction cache (damaged payload: %s)"
                         (Printexc.to_string e))
                  | c -> Ok c)))))
  | _ -> Error "not a costar prediction cache (bad magic)"

let save_precompiled ~fingerprint c file =
  let oc = open_out_bin file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (precompile ~fingerprint c))

let load_precompiled ~anl ~fingerprint file =
  match open_in_bin file with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | exception _ -> Error (file ^ ": unreadable prediction cache")
        | s -> of_precompiled ~anl ~fingerprint s)

(* {2 Flat cache images (the v3 format family, layout version 5)}

   One contiguous int32-LE file (word discipline shared with `costar
   tables` via {!Costar_grammar.Flatimg}), laid out so a process can
   [Unix.map_file] it read-only and serve predictions straight off the
   mapping — no unmarshalling, no per-process heap copy, N processes
   sharing one page-cache image.

     header   [magic | version=5 | endian sentinel | fp bytes | digest
               bytes | payload words | four-lane word checksum of payload]
     strings  grammar fingerprint, then frames digest, bytes packed LE
     payload  META   n_terms n_nts n_states n_prods
              INITS  n_nts words        (initial state id or -1)
              TRANS  n_states*n_terms   (dense successor matrix, -1 absent)
              INDEX  n_states words     (config-block offset per state)
              SPINES n_spines, then per spine: static frame id, tail index
                       (-1 nil, else < the spine's own index)
              DATA   per state: n_configs, then per config:
                       pred, ctx (-1 accept | nonterminal id), spine index

   The spine table stores the cache's hash-consed frame stacks once, as
   a topologically ordered DAG (every tail precedes its spine), instead
   of spelling each configuration's stack out symbol by symbol: frame
   ids are the static ids the header's frames digest already binds.
   Closure memos are deliberately absent: they are recomputed
   deterministically on demand, and [compute_info] rebuilds verdict boxes
   from the configuration lists, so configurations + transitions + inits
   are the whole cache.  Everything is validated — bounds, ranges, block
   contiguity, checksum — before any offset is trusted; hot readers then
   use unchecked loads.  Layout version 5 differs from version 4 only in
   the checksum: four independent word lanes ({!Flatimg.checksum_fold})
   instead of byte-serial FNV-1a, which was most of an image load. *)

let image_magic = 0x52334143 (* "CA3R" in LE bytes; v2 files start "cost" *)
let image_version = 5
let endian_sentinel = 0x01020304

type image_error =
  | Img_io of string
  | Img_bad_magic
  | Img_bad_version of int
  | Img_endian_mismatch
  | Img_truncated
  | Img_checksum_mismatch
  | Img_fingerprint_mismatch
  | Img_digest_mismatch
  | Img_malformed of string

let image_error_to_string = function
  | Img_io msg -> msg
  | Img_bad_magic -> "not a costar cache image (bad magic)"
  | Img_bad_version v ->
    Printf.sprintf
      "unsupported cache-image format version %d (this build reads version \
       %d); regenerate it with `costar analyze --emit-image`"
      v image_version
  | Img_endian_mismatch ->
    "cache image byte order does not match this host (big-endian mapping \
     of a little-endian image)"
  | Img_truncated -> "corrupt cache image (truncated)"
  | Img_checksum_mismatch -> "corrupt cache image (checksum mismatch)"
  | Img_fingerprint_mismatch ->
    "cache image was built for a different grammar (fingerprint mismatch); \
     regenerate it with `costar analyze --emit-image`"
  | Img_digest_mismatch ->
    "cache image was built against a different suffix table (incompatible \
     build); regenerate it with `costar analyze --emit-image`"
  | Img_malformed what ->
    Printf.sprintf "corrupt cache image (malformed %s)" what

(* Bytes of a string packed four-per-word, little-endian within a word. *)
let pack_bytes s =
  let n = String.length s in
  Array.init ((n + 3) / 4) (fun i ->
      let byte j = if (4 * i) + j < n then Char.code s.[(4 * i) + j] else 0 in
      byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24))

let unpack_bytes words ~at ~len =
  String.init len (fun i ->
      let w = Flatimg.get words (at + (i / 4)) in
      Char.chr ((w lsr (8 * (i mod 4))) land 0xff))

let words_of_bytes n = (n + 3) / 4

(* Encode in one pass over the states: configuration blocks stream into
   [data], and each spine a configuration names is numbered on first
   sight, its tail first, so the spine table comes out topologically
   ordered.  Only then are the sections, whose lengths the header and
   index need, concatenated. *)
let image_bytes ~fingerprint c =
  let g = Analysis.grammar c.anl in
  let n_nts = Grammar.num_nonterminals g in
  let digest = Frames.fingerprint c.frames in
  let n_static = Frames.num_static_frames c.frames in
  let word = Flatimg.add_le_word in
  (* runtime spine id -> image spine index, or -1 *)
  let spine_ix = Array.make (Frames.num_spines c.frames) (-1) in
  let spines = Buffer.create 4096 in
  let n_spines = ref 0 in
  let rec index_of s =
    if Frames.spine_is_nil s then -1
    else if spine_ix.(s) >= 0 then spine_ix.(s)
    else begin
      let tail = index_of (Frames.spine_tail c.frames s) in
      let f = Frames.spine_frame c.frames s in
      if f >= n_static then
        invalid_arg "Cache.image_bytes: configuration holds a dynamic frame";
      let i = !n_spines in
      word spines f;
      word spines tail;
      spine_ix.(s) <- i;
      n_spines := i + 1;
      i
    end
  in
  let data = Buffer.create 4096 in
  let index = Buffer.create (4 * c.n_states) in
  for sid = 0 to c.n_states - 1 do
    word index (Buffer.length data / 4);
    let configs = (info c sid).configs in
    word data (List.length configs);
    List.iter
      (fun (cfg : Config.sll) ->
        word data cfg.s_pred;
        word data (Config.ctx_code cfg.s_ctx);
        word data (index_of cfg.s_frames))
      configs
  done;
  let pay =
    Buffer.create
      (4 * (5 + n_nts + (c.n_states * c.n_terms)) + Buffer.length index
     + Buffer.length spines + Buffer.length data)
  in
  word pay c.n_terms;
  word pay n_nts;
  word pay c.n_states;
  word pay (Array.length c.uniq);
  for x = 0 to n_nts - 1 do
    word pay (init_get c x)
  done;
  for sid = 0 to c.n_states - 1 do
    for a = 0 to c.n_terms - 1 do
      word pay (trans_get c sid a)
    done
  done;
  Buffer.add_buffer pay index;
  word pay !n_spines;
  Buffer.add_buffer pay spines;
  Buffer.add_buffer pay data;
  let payload = Buffer.contents pay in
  let out = Buffer.create (String.length payload + 8192) in
  List.iter (word out)
    [
      image_magic; image_version; endian_sentinel; String.length fingerprint;
      String.length digest; String.length payload / 4;
      Flatimg.checksum_fold ~len:(String.length payload / 4) (fun i ->
          Flatimg.le_word payload (4 * i));
    ];
  Flatimg.add_le_words out (pack_bytes fingerprint);
  Flatimg.add_le_words out (pack_bytes digest);
  Buffer.add_string out payload;
  Buffer.contents out

let save_image ~fingerprint c file =
  let oc = open_out_bin file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (image_bytes ~fingerprint c))

exception Img_err of image_error

(* Validate a candidate image end to end — header, checksum, identity,
   then a full structural walk over every table and every configuration
   block — and return the admitted offsets.  Nothing from the file is
   trusted until this returns: the walk bounds-checks every read against
   the payload and every id against its range, and requires the config
   blocks to tile the payload tail exactly (no gaps, no trailing bytes).
   After admission the hot paths may use unchecked loads. *)
let validate_image ~anl ~fingerprint words =
  let fail e = raise_notrace (Img_err e) in
  let dim = Flatimg.dim words in
  try
    if dim < 7 then fail Img_truncated;
    (* A byte-swapped mapping (big-endian host over the LE file) swaps the
       magic word itself, so it must be recognized here, before any other
       field is believed. *)
    (match Flatimg.get words 0 land 0xffffffff with
    | w when w = image_magic -> ()
    | 0x43413352 (* image_magic byte-swapped *) -> fail Img_endian_mismatch
    | _ -> fail Img_bad_magic);
    if Flatimg.get words 2 land 0xffffffff <> endian_sentinel then
      fail (Img_malformed "endian sentinel");
    let version = Flatimg.get words 1 in
    if version <> image_version then fail (Img_bad_version version);
    let n_fp = Flatimg.get words 3 in
    let n_dg = Flatimg.get words 4 in
    let n_pay = Flatimg.get words 5 in
    if n_fp < 0 || n_fp > 4096 || n_dg < 0 || n_dg > 4096 || n_pay < 0 then
      fail (Img_malformed "header lengths");
    let fp_at = 7 in
    let dg_at = fp_at + words_of_bytes n_fp in
    let pay_at = dg_at + words_of_bytes n_dg in
    if pay_at + n_pay <> dim then fail Img_truncated;
    if
      Flatimg.checksum_i32 words ~pos:pay_at ~len:n_pay
      <> Flatimg.get words 6 land 0xffffffff
    then fail Img_checksum_mismatch;
    if unpack_bytes words ~at:fp_at ~len:n_fp <> fingerprint then
      fail Img_fingerprint_mismatch;
    if
      unpack_bytes words ~at:dg_at ~len:n_dg
      <> Frames.fingerprint (Analysis.frames anl)
    then fail Img_digest_mismatch;
    (* Structural walk of the payload. *)
    if n_pay < 4 then fail (Img_malformed "payload header");
    let g = Analysis.grammar anl in
    let n_terms = Flatimg.get words pay_at in
    let n_nts = Flatimg.get words (pay_at + 1) in
    let n_states = Flatimg.get words (pay_at + 2) in
    let n_prods = Flatimg.get words (pay_at + 3) in
    if
      n_terms <> Grammar.num_terminals g
      || n_nts <> Grammar.num_nonterminals g
      || n_prods <> Grammar.num_productions g
      || n_states < 0
    then fail (Img_malformed "grammar shape");
    let pay_end = pay_at + n_pay in
    let inits_at = pay_at + 4 in
    let trans_at = inits_at + n_nts in
    let index_at = trans_at + (n_states * n_terms) in
    let n_spines_at = index_at + n_states in
    if n_spines_at >= pay_end then fail Img_truncated;
    for x = 0 to n_nts - 1 do
      let s = Flatimg.get words (inits_at + x) in
      if s < -1 || s >= n_states then fail (Img_malformed "initial state")
    done;
    for i = 0 to (n_states * n_terms) - 1 do
      let s = Flatimg.get words (trans_at + i) in
      if s < -1 || s >= n_states then fail (Img_malformed "transition")
    done;
    (* The spine table: static frame ids, tails strictly earlier (so the
       table is acyclic and resolves tail-first). *)
    let n_spines = Flatimg.get words n_spines_at in
    let spines_at = n_spines_at + 1 in
    if n_spines < 0 || spines_at + (2 * n_spines) > pay_end then
      fail (Img_malformed "spine count");
    let n_static = Frames.num_static_frames (Analysis.frames anl) in
    for i = 0 to n_spines - 1 do
      let f = Flatimg.get words (spines_at + (2 * i)) in
      if f < 0 || f >= n_static then fail (Img_malformed "frame id");
      let tail = Flatimg.get words (spines_at + (2 * i) + 1) in
      if tail < -1 || tail >= i then fail (Img_malformed "spine tail")
    done;
    let data_at = spines_at + (2 * n_spines) in
    (* The config blocks must tile [data_at, pay_end) in state order. *)
    let cur = ref data_at in
    let next () =
      if !cur >= pay_end then fail Img_truncated;
      let v = Flatimg.get words !cur in
      incr cur;
      v
    in
    let n_configs = ref 0 in
    for sid = 0 to n_states - 1 do
      if Flatimg.get words (index_at + sid) <> !cur - data_at then
        fail (Img_malformed "state index");
      let n_cfgs = next () in
      if n_cfgs < 0 then fail (Img_malformed "config count");
      n_configs := !n_configs + n_cfgs;
      for _ = 1 to n_cfgs do
        let pred = next () in
        if pred < 0 || pred >= n_prods then fail (Img_malformed "prediction");
        let ctx = next () in
        if ctx < -1 || ctx >= n_nts then fail (Img_malformed "context");
        let sp = next () in
        if sp < -1 || sp >= n_spines then fail (Img_malformed "spine index")
      done
    done;
    if !cur <> pay_end then fail (Img_malformed "trailing words");
    Ok
      {
        i_words = words;
        i_terms = n_terms;
        i_states = n_states;
        i_inits_at = inits_at;
        i_trans_at = trans_at;
        i_index_at = index_at;
        i_spines_at = spines_at;
        i_data_at = data_at;
        i_configs = !n_configs;
        i_memo = Array.make n_spines (-1);
      }
  with Img_err e -> Error e

(* An image-backed cache: arrays pre-sized so the image's state-id range
   is addressable, contents served lazily from the mapping. *)
let image_cache ~anl (im : image) =
  let g = Analysis.grammar anl in
  {
    anl;
    frames = Analysis.frames anl;
    n_terms = im.i_terms;
    uniq =
      Array.init
        (Array.length (Grammar.prods g))
        (fun ix -> Types.Unique_pred ix);
    base = None;
    base_cfgs = 0;
    base_states = 0;
    cfg_ids = Config.Sll_tbl.create 256;
    cfgs = Array.make 256 dummy_cfg;
    closures = Array.make 256 None;
    n_cfgs = 0;
    state_ids = Key_tbl.create 64;
    keys = Array.make (im.i_states + 64) no_row;
    infos = Array.make (im.i_states + 64) dummy_info;
    trans = Array.make (im.i_states + 64) no_row;
    n_states = im.i_states;
    n_trans = 0;
    inits = Array.make (max 1 (Grammar.num_nonterminals g)) (-1);
    img = Some im;
  }

let image_backed c = c.img <> None

(* Heap decode — the differential oracle for the mmap path: re-intern
   every image state in id order (reproducing identical ids, as v2's
   [of_portable] does) and replay the dense tables. *)
let of_image ~anl (im : image) =
  let c = create anl in
  for sid = 0 to im.i_states - 1 do
    let configs = image_state_configs c.frames im sid in
    let _, sid' = intern c configs in
    if sid' <> sid then
      invalid_arg "Cache.of_image: inconsistent state numbering"
  done;
  for sid = 0 to im.i_states - 1 do
    for a = 0 to im.i_terms - 1 do
      let s' = Flatimg.get im.i_words (im.i_trans_at + (sid * im.i_terms) + a) in
      if s' >= 0 then ignore (add_trans c sid a s')
    done
  done;
  for x = 0 to Array.length c.inits - 1 do
    let s = Flatimg.get im.i_words (im.i_inits_at + x) in
    if s >= 0 then ignore (add_init c x s)
  done;
  c

let validated_image_of_bytes ~anl ~fingerprint s =
  let n = String.length s in
  if n land 3 <> 0 then Error Img_truncated
  else
    let words =
      Flatimg.of_words (Flatimg.words_of_le_string s ~pos:0 ~count:(n / 4))
    in
    validate_image ~anl ~fingerprint words

(* Heap decode from bytes (endian-independent: the LE decode is explicit). *)
let of_image_bytes ~anl ~fingerprint s =
  match validated_image_of_bytes ~anl ~fingerprint s with
  | Error _ as e -> e
  | Ok im -> (
    match of_image ~anl im with
    | c -> Ok c
    | exception Invalid_argument msg -> Error (Img_malformed msg))

let read_file file =
  match open_in_bin file with
  | exception Sys_error msg -> Error (Img_io msg)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | exception _ -> Error (Img_io (file ^ ": unreadable cache image"))
        | s -> Ok s)

let map_image_file file =
  match Unix.openfile file [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Img_io (file ^ ": " ^ Unix.error_message e))
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let len = (Unix.fstat fd).Unix.st_size in
        if len land 3 <> 0 || len < 7 * 4 then Error Img_truncated
        else
          match
            Unix.map_file fd Bigarray.int32 Bigarray.c_layout false
              [| len / 4 |]
          with
          | exception Unix.Unix_error (e, _, _) ->
            Error (Img_io (file ^ ": mmap failed: " ^ Unix.error_message e))
          | ga -> Ok (Bigarray.array1_of_genarray ga))

(* Check the leading magic before mapping, so a non-image file (e.g. a v2
   cache, whose size need not even be word-aligned) is reported as such
   rather than as a truncated image. *)
let sniff_magic file =
  match open_in_bin file with
  | exception Sys_error msg -> Error (Img_io msg)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic 4 with
        | exception _ -> Error Img_truncated
        | s ->
          if Flatimg.le_word s 0 = image_magic then Ok ()
          else Error Img_bad_magic)

(* Map the file and serve straight off the mapping.  On a big-endian host
   the mapped words are byte-swapped (the sentinel detects this); fall
   back to the explicit-LE heap decode so the loader works everywhere —
   only the zero-copy sharing is LE-specific. *)
let load_mapped ~anl ~fingerprint file =
  match map_image_file file with
  | Error _ as e -> e
  | Ok words -> (
    match validate_image ~anl ~fingerprint words with
    | Ok im -> Ok (image_cache ~anl im)
    | Error Img_endian_mismatch -> (
      match read_file file with
      | Error _ as e -> e
      | Ok s -> of_image_bytes ~anl ~fingerprint s)
    | Error _ as e -> e)

let load_image ~anl ~fingerprint file =
  match sniff_magic file with
  | Error _ as e -> e
  | Ok () -> load_mapped ~anl ~fingerprint file

(* Heap-decoded load (the oracle path: same validation, no mapping). *)
let load_image_heap ~anl ~fingerprint file =
  match read_file file with
  | Error _ as e -> e
  | Ok s -> of_image_bytes ~anl ~fingerprint s

(* Magic-sniffing loader for CLI `--cache` arguments: images start "CA3R",
   v2 caches "cost"; anything else falls to the v2 loader for its
   diagnostics.  Only that v2 path reads the whole file onto the heap; an
   image is sniffed from its first word and then mapped. *)
let load_any ~anl ~fingerprint file =
  match sniff_magic file with
  | Ok () ->
    Result.map_error image_error_to_string (load_mapped ~anl ~fingerprint file)
  | Error (Img_io msg) -> Error msg
  | Error _ -> (
    match read_file file with
    | Error e -> Error (image_error_to_string e)
    | Ok s -> of_precompiled ~anl ~fingerprint s)

type image_stats = {
  img_bytes : int;
  img_states : int;
  img_spines : int;
  img_configs : int;
}

let image_stats c =
  Option.map
    (fun im ->
      {
        img_bytes = 4 * Flatimg.dim im.i_words;
        img_states = im.i_states;
        img_spines = Array.length im.i_memo;
        img_configs = im.i_configs;
      })
    c.img
