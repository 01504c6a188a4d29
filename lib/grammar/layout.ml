(* A port of OCaml 5.1's Format engine (Oppen, "Prettyprinting", TOPLAS
   1980), cut down to the four token kinds the tree printer emits: text,
   [break 1 0], a hov box with indent 1, and close box.  Every decision is
   taken exactly as in Stdlib.Format ([format_pp_token], [advance_left],
   [set_size], [scan_push], [pp_force_break_line]) with the default
   geometry (margin 78, max indent 68), so the bytes match a fresh
   formatter's.  What differs is storage: the token queue, the scan stack
   and the format stack are int arrays, the queue is a ring addressed by
   absolute sequence numbers, and output goes into a 64 KB chunk that is
   written to the out_channel each time it fills, so a document of any
   size streams through a fixed buffer.

   Three details are load-bearing for exactness:
   - a scan-stack entry keeps its own token kind and initial size, because
     its queue slot may already have been printed (and, in the ring,
     reused) when [set_size] reaches it; the size is then written back only
     while the token is still queued, where Format's write to a dequeued
     record is a no-op;
   - an unknown-size token at the head of the queue is forced when
     [right_total - left_total >= space_left] ([>=], not [>]), and is then
     formatted with size [pp_infinity];
   - the start state copies [pp_make_formatter]: the system hov box sits in
     the queue with unknown size, and [left_total = right_total = 1]. *)

let margin = 78
let max_indent = 68
let pp_infinity = 1000000010
let chunk_size = 65536

(* Token kinds.  [k_text] doubles as the scan stack's sentinel kind;
   [k_sys] is the system box, a hov box with indent 0. *)
let k_text = 0
let k_break = 1
let k_begin = 2
let k_sys = 3
let k_end = 4

(* A token's length is a function of its kind and size: text is always
   known-size, a break is one space wide, boxes are empty. *)
let[@inline] token_len kind size =
  if kind = k_text then size else if kind = k_break then 1 else 0

type t = {
  (* Output goes into 64 KB chunks: [out] is filled up to [pos].  With a
     channel a full chunk is written out and refilled; without one it is
     kept in [full] (newest first) and the text is assembled once, at the
     end. *)
  oc : out_channel option;
  mutable out : Bytes.t;
  mutable pos : int;
  mutable full : Bytes.t list;
  (* Token queue: a ring of [cap] slots indexed by [seq land (cap - 1)],
     where [q_head] and [q_tail] are absolute sequence numbers.  Slot [i]
     holds kind and size at [q.(2i)], [q.(2i+1)], and a text token's three
     strings at [q_str.(3i)] .. [q_str.(3i+2)]. *)
  mutable cap : int;
  mutable q : int array;
  mutable q_str : string array;
  mutable q_head : int;
  mutable q_tail : int;
  (* Scan stack: left total at push, queue sequence number, token kind and
     initial size of each entry.  Entry 0 is the sentinel. *)
  mutable s_left : int array;
  mutable s_seq : int array;
  mutable s_kind : int array;
  mutable s_size : int array;
  mutable s_top : int;
  (* Format stack: width of each active box and whether it fits. *)
  mutable f_width : int array;
  mutable f_fits : Bytes.t;
  mutable f_top : int;
  mutable space_left : int;
  mutable left_total : int;
  mutable right_total : int;
  mutable depth : int;
}

(* --- output -------------------------------------------------------------- *)

(* Chunks are recycled per domain, so that printing into a string
   allocates the string and little else.  At most [pool_max] chunks (2 MB)
   are kept. *)
let pool_max = 32
let pool : Bytes.t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let take_chunk () =
  let p = Domain.DLS.get pool in
  match !p with
  | c :: rest ->
    p := rest;
    c
  | [] -> Bytes.create chunk_size

let release_chunks chunks =
  let p = Domain.DLS.get pool in
  List.iter
    (fun c -> if List.compare_length_with !p pool_max < 0 then p := c :: !p)
    chunks

(* Hand the chunks back once the output is complete.  The engine is then
   spent: its next write would fail on the empty chunk rather than touch
   a recycled one. *)
let retire l =
  release_chunks (l.out :: l.full);
  l.out <- Bytes.empty;
  l.pos <- chunk_size;
  l.full <- []

let next_chunk l =
  (match l.oc with
  | Some oc -> output oc l.out 0 l.pos
  | None ->
    l.full <- l.out :: l.full;
    l.out <- take_chunk ());
  l.pos <- 0

let add_char l c =
  if l.pos = chunk_size then next_chunk l;
  Bytes.unsafe_set l.out l.pos c;
  l.pos <- l.pos + 1

let add_substring l s off len =
  let off = ref off and len = ref len in
  while !len > 0 do
    if l.pos = chunk_size then next_chunk l;
    let k = Int.min !len (chunk_size - l.pos) in
    Bytes.unsafe_blit_string s !off l.out l.pos k;
    l.pos <- l.pos + k;
    off := !off + k;
    len := !len - k
  done

let[@inline] add_string l s = add_substring l s 0 (String.length s)

let blanks = String.make 80 ' '

let output_spaces l n =
  let n = ref n in
  while !n > 0 do
    let k = if !n <= 80 then !n else 80 in
    add_substring l blanks 0 k;
    n := !n - k
  done

(* --- growable arrays ------------------------------------------------------ *)

let grow a fill n = Array.append a (Array.make n fill)

let grow_queue l =
  let cap = l.cap and cap' = 2 * l.cap in
  let move a stride fill =
    let a' = Array.make (stride * cap') fill in
    for seq = l.q_head to l.q_tail - 1 do
      Array.blit a (stride * (seq land (cap - 1))) a'
        (stride * (seq land (cap' - 1)))
        stride
    done;
    a'
  in
  l.q <- move l.q 2 0;
  l.q_str <- move l.q_str 3 "";
  l.cap <- cap'

(* --- queue ---------------------------------------------------------------- *)

(* [pp_enqueue]: returns the token's slot. *)
let enqueue l kind size =
  if l.q_tail - l.q_head = l.cap then grow_queue l;
  let seq = l.q_tail in
  let i = seq land (l.cap - 1) in
  Array.unsafe_set l.q (2 * i) kind;
  Array.unsafe_set l.q ((2 * i) + 1) size;
  l.q_tail <- seq + 1;
  l.right_total <- l.right_total + token_len kind size;
  i

(* --- formatting ----------------------------------------------------------- *)

(* [break_new_line] with empty before/after strings. *)
let break_new_line l offset width =
  add_char l '\n';
  let indent = margin - width + offset in
  let indent = if indent < max_indent then indent else max_indent in
  l.space_left <- margin - indent;
  output_spaces l indent

let push_format l width fits =
  let top = l.f_top + 1 in
  if top = Array.length l.f_width then begin
    l.f_width <- grow l.f_width 0 top;
    l.f_fits <- Bytes.extend l.f_fits 0 top
  end;
  Array.unsafe_set l.f_width top width;
  Bytes.unsafe_set l.f_fits top (if fits then '\001' else '\000');
  l.f_top <- top

let format_token l kind i size =
  if kind = k_text then begin
    l.space_left <- l.space_left - size;
    add_string l (Array.unsafe_get l.q_str (3 * i));
    add_string l (Array.unsafe_get l.q_str ((3 * i) + 1));
    add_string l (Array.unsafe_get l.q_str ((3 * i) + 2))
  end
  else if kind = k_break then begin
    if l.f_top >= 0 then begin
      let width = Array.unsafe_get l.f_width l.f_top in
      if Bytes.unsafe_get l.f_fits l.f_top = '\000' && size > l.space_left
      then break_new_line l 0 width
      else begin
        l.space_left <- l.space_left - 1;
        add_char l ' '
      end
    end
  end
  else if kind = k_end then begin
    if l.f_top >= 0 then l.f_top <- l.f_top - 1
  end
  else begin
    (* A box opened past max indent first breaks the line in the enclosing
       box ([pp_force_break_line]). *)
    if margin - l.space_left > max_indent then begin
      if l.f_top < 0 then add_char l '\n'
      else begin
        let width = Array.unsafe_get l.f_width l.f_top in
        if width > l.space_left && Bytes.unsafe_get l.f_fits l.f_top = '\000'
        then break_new_line l 0 width
      end
    end;
    let width = if kind = k_begin then l.space_left - 1 else l.space_left in
    push_format l width (size <= l.space_left)
  end

let rec advance_left l =
  if l.q_head < l.q_tail then begin
    let i = l.q_head land (l.cap - 1) in
    let kind = Array.unsafe_get l.q (2 * i) in
    let size = Array.unsafe_get l.q ((2 * i) + 1) in
    if size >= 0 || l.right_total - l.left_total >= l.space_left then begin
      l.q_head <- l.q_head + 1;
      format_token l kind i (if size >= 0 then size else pp_infinity);
      l.left_total <- l.left_total + token_len kind size;
      advance_left l
    end
  end

(* --- scan stack ----------------------------------------------------------- *)

let init_scan_stack l =
  l.s_top <- 0;
  l.s_left.(0) <- -1;
  l.s_kind.(0) <- k_text

let set_size l is_break =
  let top = l.s_top in
  if Array.unsafe_get l.s_left top < l.left_total then init_scan_stack l
  else begin
    let kind = Array.unsafe_get l.s_kind top in
    if (kind = k_break && is_break)
       || ((kind = k_begin || kind = k_sys) && not is_break)
    then
    begin
      let seq = Array.unsafe_get l.s_seq top in
      if seq >= l.q_head then
        Array.unsafe_set l.q
          ((2 * (seq land (l.cap - 1))) + 1)
          (l.right_total + Array.unsafe_get l.s_size top);
      l.s_top <- top - 1
    end
  end

let scan_push l ~set kind size =
  let seq = l.q_tail in
  ignore (enqueue l kind size);
  if set then set_size l true;
  let top = l.s_top + 1 in
  if top = Array.length l.s_left then begin
    l.s_left <- grow l.s_left 0 top;
    l.s_seq <- grow l.s_seq 0 top;
    l.s_kind <- grow l.s_kind 0 top;
    l.s_size <- grow l.s_size 0 top
  end;
  Array.unsafe_set l.s_left top l.right_total;
  Array.unsafe_set l.s_seq top seq;
  Array.unsafe_set l.s_kind top kind;
  Array.unsafe_set l.s_size top size;
  l.s_top <- top

(* --- the four tokens ------------------------------------------------------ *)

let text3 l pre s post =
  let len = String.length pre + String.length s + String.length post in
  let i = enqueue l k_text len in
  Array.unsafe_set l.q_str (3 * i) pre;
  Array.unsafe_set l.q_str ((3 * i) + 1) s;
  Array.unsafe_set l.q_str ((3 * i) + 2) post;
  advance_left l

let text l s = text3 l "" s ""

let break l = scan_push l ~set:true k_break (-l.right_total)

let open_box l =
  l.depth <- l.depth + 1;
  scan_push l ~set:false k_begin (-l.right_total)

let close_box l =
  if l.depth > 1 then begin
    ignore (enqueue l k_end 0);
    set_size l true;
    set_size l false;
    l.depth <- l.depth - 1
  end

(* --- engine lifetime ------------------------------------------------------ *)

let create ?oc () =
  let cap = 64 in
  let l =
    {
      oc;
      out = take_chunk ();
      pos = 0;
      full = [];
      cap;
      q = Array.make (2 * cap) 0;
      q_str = Array.make (3 * cap) "";
      q_head = 0;
      q_tail = 0;
      s_left = Array.make cap 0;
      s_seq = Array.make cap 0;
      s_kind = Array.make cap 0;
      s_size = Array.make cap 0;
      s_top = 0;
      f_width = Array.make cap 0;
      f_fits = Bytes.make cap '\000';
      f_top = -1;
      space_left = margin;
      left_total = 1;
      right_total = 1;
      depth = 1;
    }
  in
  init_scan_stack l;
  (* [pp_make_formatter]: the system box, queued with unknown size. *)
  scan_push l ~set:false k_sys (-1);
  l

(* [pp_flush_queue]: close open boxes, print everything, and optionally end
   the line.  With a channel, the output is then written and the channel
   flushed. *)
let flush l ~newline =
  while l.depth > 1 do
    close_box l
  done;
  l.right_total <- pp_infinity;
  advance_left l;
  if newline then add_char l '\n';
  match l.oc with
  | Some oc ->
    output oc l.out 0 l.pos;
    Stdlib.flush oc;
    retire l
  | None -> ()

let contents l =
  let len = List.length l.full * chunk_size in
  let s = Bytes.create (len + l.pos) in
  Bytes.blit l.out 0 s len l.pos;
  List.iteri
    (fun k c -> Bytes.blit c 0 s (len - ((k + 1) * chunk_size)) chunk_size)
    l.full;
  retire l;
  Bytes.unsafe_to_string s
