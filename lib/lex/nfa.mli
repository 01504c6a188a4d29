(** Thompson construction: regexes to nondeterministic finite automata.

    A combined NFA is built from a list of tagged regexes (one per scanner
    rule); each accepting state remembers the index of the rule it belongs
    to, so the DFA can implement rule-priority tie-breaking. *)

type t

type state = int

val num_states : t -> int
val start : t -> state

(** [build rules] wires one Thompson fragment per regex, all reachable from
    a shared start state via epsilon.  Rule indices are positions in the
    input list. *)
val build : Regex.t list -> t

(** {2 Reference semantics}

    [eps_closure] and [step] define the NFA's meaning one byte at a time.
    They allocate per call and are not on any hot path; the test suite
    simulates maximal munch with them as the oracle for the DFA. *)

(** Epsilon closure of a set of states, as a sorted list. *)
val eps_closure : t -> state list -> state list

(** States reachable from [states] by consuming byte [c] (not closed). *)
val step : t -> state list -> char -> state list

(** [accept_rule nfa s] is the rule index accepted at state [s], if any. *)
val accept_rule : t -> state -> int option

(** {2 Batch stepping (the DFA builder's inner loop)} *)

(** The ascending lower bounds of the byte intervals between range
    boundaries: the alphabet is cut at each range's [lo] and [hi + 1], so
    every range holds all of an interval or none of it.  The first
    element is always [0]; an interval runs up to the next bound minus
    one, the last one up to [255]. *)
val alphabet_partition : t -> int array

(** [step_closure nfa] is a function [f] such that [f states c] is
    [eps_closure nfa (step nfa states c)] as a fresh sorted array.  [f]
    owns one generation-stamped mark array and worklist, reused by every
    call, so a step allocates no per-call mark arrays or lists. *)
val step_closure : t -> state array -> char -> state array
