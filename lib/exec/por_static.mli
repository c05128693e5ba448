(** Static per-program conflict facts shared by the partial-order
    reductions: the SC checker's candidate test ({!Sc}), the DRF
    sync-order search ([Sync_orders] in [lib/drf]) and the machine
    independence oracles (in [lib/machine]) all key off the same questions
    — answered once per program here rather than once per state.

    All indices are clamped, so callers may pass a thread's
    next-instruction index even when the thread has run off the end of its
    program. *)

type t = {
  instrs : Instr.t array array;  (** per-thread instruction arrays *)
  suffix : int Exp.Smap.t array array;
      (** [suffix.(p).(j)]: location -> 2-bit mask over thread [p]'s
          instructions from index [j] on; bit 0 = some access remains,
          bit 1 = some write remains *)
  sync_after : bool array array;
      (** [sync_after.(p).(j)]: a synchronization-class instruction
          remains at index >= [j] in thread [p] *)
  block_after : bool array array;
      (** [block_after.(p).(j)]: a blocking instruction ([Await] or
          [Lock]) remains at index >= [j] in thread [p] *)
  loc_masks : (int * int) Exp.Smap.t array;
      (** per thread: location -> (access bitmask, write bitmask) over
          instruction indices, for executed-set machines *)
  loc_ids : int Exp.Smap.t;
      (** location -> dense id, in order of first appearance *)
  iloc : int array array;
      (** [iloc.(p).(j)]: dense id of the location instruction [j] of
          thread [p] touches, or [-1] for fences *)
  suffix_ids : int array array;
      (** the suffix masks re-encoded as 2 bits per dense location id —
          the allocation-free fast path; [[||]] when the program has too
          many locations to pack in one word *)
}

val is_sync_class : Instr.t -> bool
(** Instructions that commit through a machine's synchronization path:
    sync loads/stores/awaits, RMWs and locks — everything except plain
    data accesses and fences. *)

val of_prog : Prog.t -> t

val cached : Prog.t -> t
(** [of_prog] behind a process-wide physical-identity cache; safe to call
    from multiple domains. *)

val access_remains : t -> p:int -> j:int -> string -> bool
(** Does thread [p] still access [loc] at instruction index >= [j]? *)

val write_remains : t -> p:int -> j:int -> string -> bool
(** Does thread [p] still write [loc] at instruction index >= [j]? *)

val sync_remains : t -> p:int -> j:int -> bool
(** Does thread [p] still have a synchronization-class instruction at
    index >= [j]? *)

val blocking_remains : t -> p:int -> j:int -> bool
(** Does thread [p] still have an [Await] or [Lock] at index >= [j]?
    When no thread does, nothing left can block: every program-order
    interleaving of the remaining instructions runs to completion. *)

val loc_bitmasks : t -> p:int -> string -> int * int
(** [(access, write)] bitmasks of thread [p]'s instruction indices
    touching [loc]; [(0, 0)] when the thread never touches it. *)

val has_dense_ids : t -> bool
(** Whether the dense-id fast path below is available (it is unless the
    program names more locations than fit 2-bits-each in one word). *)

val instr_loc_id : t -> p:int -> j:int -> int
(** Dense id of the location instruction [j] of thread [p] touches, or
    [-1].  Unlike the suffix queries, [j] must be a valid instruction
    index. *)

val access_remains_id : t -> p:int -> j:int -> int -> bool
val write_remains_id : t -> p:int -> j:int -> int -> bool
(** {!access_remains}/{!write_remains} keyed by dense location id: a
    shift and a mask on a precomputed word, no map lookup, no
    allocation.  Only valid when {!has_dense_ids}. *)
