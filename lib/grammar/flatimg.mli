(** Shared codec for the flat int32-LE image formats.

    Both `costar tables` images (format v2) and v3 prediction-cache images
    (layout version 5) encode a payload of 32-bit words — little-endian on
    disk, guarded by a four-lane word checksum of the on-disk words.  This
    module owns that word discipline; the two formats define their own
    layouts on top of it. *)

val bits : int
(** Word width: 32. *)

val words_for : int -> int
(** [words_for n] is the number of words needed for [n] bits. *)

val push : int list ref -> int -> unit
(** Append one word (masked to 32 bits) to a reversed-word-list builder. *)

val checksum : int array -> int
(** Four-lane word checksum, 32 bits: word [i] feeds lane [i land 3], each
    lane (seeded [0x811c9dc5]) steps [h <- ((h xor w) * 0x01000193) land
    0xffffffff], and the lanes are folded in order with the same step from
    the seed.  Every single-word change alters the result.  Only the low 32
    bits of each word count. *)

val checksum_fold : len:int -> (int -> int) -> int
(** Generalized {!checksum} over any indexed word source. *)

val add_le_word : Buffer.t -> int -> unit
val add_le_words : Buffer.t -> int array -> unit

val le_word : string -> int -> int
(** [le_word s pos] reads one LE word at byte offset [pos].  Unsafe: the
    caller must have checked [pos + 4 <= length s]. *)

val words_of_le_string : string -> pos:int -> count:int -> int array

(** {2 int32 Bigarray views}

    The mmap-shared cache image is one contiguous [int32] bigarray; on a
    little-endian host the on-disk words and the array elements coincide
    byte for byte.  Reads return plain unboxed [int]s (sign-extended). *)

type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

val dim : i32 -> int
val get : i32 -> int -> int
(** Bounds-checked word read. *)

val get_u : i32 -> int -> int
(** Unchecked word read — the warm-path variant.  In native code the
    bigarray load and the [Int32.to_int] compose without allocating an
    [Int32.t] box, so reading mmapped transition rows stays off the minor
    heap.  Only safe on indices a prior validation walk has admitted. *)

val set : i32 -> int -> int -> unit
val of_words : int array -> i32
val checksum_i32 : i32 -> pos:int -> len:int -> int
