(** Atomic, in-program-order small-step semantics — the paper's "idealized
    architecture" where all memory accesses execute atomically and in
    program order. *)

module Smap = Exp.Smap

type thread_state = { next : int; regs : int Smap.t }
type state = { memory : int Smap.t; threads : thread_state array }

val initial : Prog.t -> state
val read_mem : int Smap.t -> string -> int
val thread_done : Prog.t -> state -> int -> bool
val all_done : Prog.t -> state -> bool
val next_instr : Prog.t -> state -> int -> Instr.t option

val step : Prog.t -> state -> int -> state option
(** [step prog s p] executes the next instruction of thread [p] atomically.
    Returns [None] if [p] has finished, or if its next instruction is a
    blocked [Await]/[Lock] that cannot currently succeed. *)

val final_of_state : state -> Final.t

val layout : Prog.t -> Layout.t
(** The packed-key layout of the program's SC states (memory, then each
    thread's program counter and registers), memoized. *)

val key : Layout.t -> state -> string
(** The state's packed key under [layout prog]: equal keys mean equal
    states, and the key order is [String.compare]. *)
