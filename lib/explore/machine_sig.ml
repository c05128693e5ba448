(* The interface of an abstract hardware machine: a nondeterministic labeled
   transition system whose complete runs define the outcomes the hardware
   allows for a program.  [Explore] turns any machine into an exhaustive
   outcome-set computation, sequential or parallel.

   A machine may additionally declare a partial-order reduction oracle: a
   labeling of its transitions with enough information to decide
   commutativity, plus an ample-transition selector.  Machines without an
   oracle ([por _ = None]) are explored in full — the safe default. *)

type action = {
  a_proc : int;  (** issuing processor *)
  a_id : int;
      (** discriminates this transition among [a_proc]'s transitions: the
          instruction index for issues, the pending-buffer slot for drains.
          Must be stable across revisits of the same canonical state so
          that sleep-set membership is meaningful. *)
  a_loc : string;
      (** shared location the step touches, or [""] for a purely
          processor-local step (register write, buffer enqueue, fence) *)
  a_write : bool;  (** the step can change the value at [a_loc] *)
  a_sync : bool;
      (** the step reads or writes global synchronization structures
          (reservations, lock state) beyond the single location [a_loc];
          sync steps are never independent of other shared-memory steps *)
}

(* Commutativity of two transition labels.  Deliberately conservative:
   same-processor steps are always dependent (program order), sync steps
   conflict with every non-local step, and two accesses to one location
   conflict unless both are reads.  A machine's labeling must be honest —
   [a_loc = ""] promises the step commutes with every step of every other
   processor. *)
let independent t u =
  t.a_proc <> u.a_proc
  && (t.a_loc = "" || u.a_loc = ""
     || ((not t.a_sync) && (not u.a_sync)
        && not (t.a_loc = u.a_loc && (t.a_write || u.a_write))))

type 'state oracle = {
  successors_labeled : 'state -> (action * 'state) list;
      (** Same transitions as [successors], in the same order, each
          carrying its label. *)
  ample : 'state -> (action * 'state) list -> (action * 'state) option;
      (** [ample st succs], where [succs = successors_labeled st]:
          [Some (a, s')] iff the machine can prove firing this single
          transition alone preserves the outcome set — [(a, s')] must be
          one of [succs]'s entries, commute with every transition any
          other processor (and, for non-issue steps, the same processor)
          can fire before it, and occur in every complete run from [st].
          [None] means expand everything. *)
}

module type MACHINE = sig
  type state

  val name : string

  val initial : Prog.t -> state

  val successors : Prog.t -> state -> state list
  (** All states reachable in one step.  The empty list on a non-final state
      means the machine is stuck (e.g. all threads blocked on awaits);
      such runs produce no outcome. *)

  val final : Prog.t -> state -> Final.t option
  (** [Some f] iff the state is a complete run (all threads finished, all
      buffered effects drained). *)

  val shape : Layout.shape
  (** What the machine's states hold beyond memory and registers: the
      engine lays keys out with [Layout.cached prog shape]. *)

  val canon : Layout.t -> state -> string
  (** The state's packed key under the program's layout.  Equal keys must
      mean the same set of future behaviours and the same [final]; the
      layout keeps a written 0 distinct from an unwritten slot, so
      writing every varying component of the state is enough.  For the
      state map [sigma] a program automorphism induces, the machine must
      place components so that
      [canon (sigma st) = Sym.permute (compiled sigma) (canon st)] — the
      layout makes that hold for anything written through its per-
      processor, per-register and per-location slots.  The
      orbit-representative pruning in [Explore] is sound exactly because
      of that equation. *)

  val por : Prog.t -> state oracle option
  (** The machine's partial-order reduction oracle for [prog], or [None]
      to disable reduction for this machine (always sound). *)
end
