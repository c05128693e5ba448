(** Exhaustive sequentially consistent execution of litmus programs. *)

val outcomes : ?reduce:bool -> Prog.t -> Final.Set.t
(** The complete set of SC results, computed by memoized state-space
    exploration.  [reduce] (default [true]) enables a partial-order
    reduction that fires a thread's next instruction alone when it is a
    data access (or fence) provably independent of everything any other
    thread will still do — the outcome set is identical either way
    (checked differentially); [~reduce:false] is the escape hatch that
    forces the unreduced sweep. *)

val explore : ?reduce:bool -> Prog.t -> Final.Set.t * int
(** [outcomes] plus the number of distinct states visited — the state-count
    telemetry the bench harness records. *)

val por_candidate : Por_static.t -> Sem.state -> int option
(** The reduction's choice at a state: the first thread whose next
    instruction is a data load or store, or a fence, that conflicts with
    nothing any other thread will still do.  Firing it alone preserves
    every value any other instruction reads, so every complete run is
    equivalent to one that fires it first.  Never picks a synchronization
    operation, an RMW or an [Await]. *)

type por_stats = {
  por_taken : int;
      (** branch states where the reduction fired one provably independent
          instruction instead of interleaving *)
  por_declined : int;
      (** branch states the reduction examined but had to expand fully
          (always [0] with [~reduce:false]) *)
}
(** Hit/miss telemetry for the partial-order reduction. *)

val explore_counted :
  ?reduce:bool -> ?sym:bool -> Prog.t -> Final.Set.t * int * por_stats
(** {!explore} plus the reduction's {!por_stats} — the observability feed
    for the exploration dashboards.  [sym] (default [false]) additionally
    prunes modulo the program's automorphism group ({!Sym}): the visited
    table is probed with the least key of each state's orbit and recorded
    outcomes are closed under the group, so the outcome set is identical
    with and without it — only the state count drops. *)

val explore_within :
  ?reduce:bool ->
  ?sym:bool ->
  budget:Budget.t ->
  Prog.t ->
  Final.Set.t * int * bool
(** {!explore} under a {!Budget.t}, checked at a safe point every few
    dozen visited states.  The third component is [true] iff the sweep ran
    to completion; on [false] the set is a sound {e subset} of the
    complete SC set — a positive subset test against it is still valid, a
    negative one is inconclusive. *)

val outcomes_cached : Prog.t -> Final.Set.t
(** [outcomes] memoized process-wide on physical program identity (with
    reduction on).  Use in sweeps that repeatedly compare machines against
    the same program's SC set.  Thread-safe. *)

val iter_traces : ?reduce:bool -> Prog.t -> (int list -> Final.t -> unit) -> unit
(** [iter_traces p f] calls [f trace final] for every SC interleaving, where
    [trace] lists event ids (see {!Evts}) in execution order.  Exponential in
    program size; use for litmus-sized programs and cross-checks only.
    [reduce] defaults to [false] here: full-trace clients (race detection on
    every interleaving) need exhaustive enumeration; with [~reduce:true]
    only a representative of each commutation class is visited (covering
    every final result, but not every trace). *)

val count_traces : ?reduce:bool -> Prog.t -> int

val allows : Prog.t -> Cond.t -> bool
(** Is the condition satisfied by some SC outcome? *)

val allows_exists : Prog.t -> bool option
(** [allows] applied to the program's own "exists" clause, if any. *)
