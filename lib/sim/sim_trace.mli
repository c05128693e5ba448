(** Per-operation traces of simulator runs and a mechanical check of the
    Section 5.1 sufficient conditions on them. *)

type ev = {
  ep : int;  (** issuing processor *)
  eidx : int;  (** program-order index within the processor *)
  sync : bool;  (** synchronization operation? *)
  reads : bool;
  writes : bool;
  eloc : string;  (** memory location *)
  egen : int;  (** generation cycle (the processor issues the access) *)
  ecommit : int;  (** commit cycle; [-1] if it never committed *)
  egp : int;  (** globally-performed cycle; [-1] if never *)
}
(** One memory operation of a run, with the three timestamps the
    Section 5.1 conditions are phrased over. *)

(** {1 The operation log}

    What a run records: one fixed-width row of unboxed ints per operation
    — processor, kind flags, line id, and the generation, commit and
    globally-performed cycles — in generation order.  Recording allocates
    nothing but the log's own occasional doubling; {!events} builds the
    [ev list] the checkers read, on demand. *)

type log
(** A growable operation log over one run's interned locations. *)

val create : nprocs:int -> names:string array -> log
(** An empty log; [names.(line)] is the location of line id [line].
    @raise Invalid_argument when [nprocs] exceeds the packed layout's
    2{^20} processors. *)

val record :
  log -> proc:int -> sync:bool -> reads:bool -> writes:bool -> line:int -> gen:int -> int
(** Append a freshly generated operation (commit and globally-performed
    cycles unknown, [-1]) and return its row, for {!set_commit} and
    {!set_gp}. *)

val set_commit : log -> int -> int -> unit
(** [set_commit log row cycle]: the operation committed at [cycle]. *)

val set_gp : log -> int -> int -> unit
(** [set_gp log row cycle]: the operation was globally performed at
    [cycle]. *)

val length : log -> int
(** Operations recorded. *)

val events : log -> ev list
(** The log as trace events, in generation order; [eidx] is each
    operation's rank among its processor's operations. *)

val pp_ev : Format.formatter -> ev -> unit

type violation = { condition : int; message : string }
(** A Section 5.1 condition broken by the trace, with its number. *)

val pp_violation : Format.formatter -> violation -> unit

(** [check_conditionN] verifies the paper's condition [N] over a complete
    run trace and returns every breach; empty = the run was compliant. *)

val check_condition2 : ev list -> violation list
val check_condition3 : ev list -> violation list
val check_condition4 : ev list -> violation list
val check_condition5 : ev list -> violation list

val check_all : ev list -> violation list
(** All four checkable conditions (condition 1 is structural). *)

val pp_timeline : ?width:int -> Format.formatter -> ev list -> unit
(** Compact per-processor text timeline of a run: '-' spans an operation
    from generation to commit; r/w/S mark commits; '!' marks a sync whose
    global performance lags its commit. *)
