(** Feasible per-location synchronization completion orders.

    The happens-before relation of an idealized execution depends only on
    the order in which same-location synchronization operations complete;
    this module enumerates exactly the orders realizable by complete SC
    executions (a memoized semantic search, so blocking [Await]/[Lock]
    instructions correctly prune unrealizable orders).

    The search is reduced: a thread's next data load or store, or fence,
    is fired alone, without interleaving the other threads, when it
    conflicts with nothing another thread will still do
    ({!Sc.por_candidate}) or when no [Await] or [Lock] remains in any
    thread ({!Por_static.blocking_remains}).  Either way every complete
    run can move it to the front without changing any per-location sync
    projection, so the set of orders is the unreduced one; only the
    synchronization operations are interleaved.  A program with no sync
    operations costs one pass down its threads. *)

type t = (string * int list) list
(** For each synchronization location (sorted by name), sync event ids in
    completion order. *)

val feasible : Prog.t -> t list
(** All realizable synchronization orders, each once, in ascending
    order. *)

val to_so : Evts.t -> t -> Rel.t
(** The synchronization-order relation induced by one order choice. *)

val count : Prog.t -> int
val pp : Format.formatter -> t -> unit
