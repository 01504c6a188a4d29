(** A specialised port of Stdlib [Format]'s layout engine (OCaml 5.1),
    restricted to the four token kinds the tree printer uses: text,
    [break 1 0] ([@ ]), a hov box with indent 1 ([@[<hov 1>]) and close box
    ([@]]).  With the default geometry (margin 78, max indent 68) it lays
    out a token stream byte for byte as a fresh [Format] formatter does,
    but keeps its queue and stacks in int arrays and allocates nothing per
    token. *)

type t

(** A fresh engine, in the state of a freshly made formatter.  With [~oc]
    the output is streamed to [oc] in 64 KB chunks; without it, it is kept
    for {!contents}.  An engine prints one document: it is spent after
    {!flush} with a channel, or after {!contents}. *)
val create : ?oc:out_channel -> unit -> t

(** [text l s]: [Format.pp_print_string]. *)
val text : t -> string -> unit

(** [text3 l pre s post] prints [pre ^ s ^ post] as one token without
    building the string. *)
val text3 : t -> string -> string -> string -> unit

(** [break l]: [Format.pp_print_break 1 0]. *)
val break : t -> unit

(** [open_box l]: [Format.pp_open_hovbox 1]. *)
val open_box : t -> unit

(** [close_box l]: [Format.pp_close_box]. *)
val close_box : t -> unit

(** [flush l ~newline] closes every open box and prints all pending
    tokens, then a newline if [newline] (as [Format]'s [pp_print_newline],
    [@.], does).  With a channel it writes out the buffer and flushes the
    channel. *)
val flush : t -> newline:bool -> unit

(** The document laid out by a channel-less engine, after {!flush}. *)
val contents : t -> string
