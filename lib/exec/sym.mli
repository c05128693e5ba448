(** Program automorphisms — the symmetry groups the exploration engines
    reduce modulo.

    An automorphism is a processor permutation together with the (derived)
    location and per-thread register bijections under which the program is
    invariant: corresponding threads run the same instruction list up to
    renaming, and the initial memory is unchanged.  Every such map is an
    automorphism of each abstract machine's transition graph, it fixes the
    initial state, and it maps final states to final states — so the
    outcome set is closed under the group, which is what makes
    orbit-representative pruning sound.

    The [exists] clause is not required to be invariant: outcome sets are
    final-state sets, closed under the group regardless.  Clause-aware
    program canonicalization (for verdict-cache keys) is [Prog_canon]'s
    job, not this module's. *)

type perm = {
  p_proc : int array;  (** image: old processor [p] becomes [p_proc.(p)] *)
  p_loc : (string * string) list;  (** location bijection, [(old, new)] *)
  p_reg : (string * string) list array;
      (** per {e old} processor [p]: register bijection into processor
          [p_proc.(p)]'s register space *)
}
(** One non-identity automorphism.  Plain structural data: safe to
    marshal, compare and share across domains. *)

type t = {
  perms : perm list;  (** every non-identity automorphism *)
  order : int;  (** group order, [List.length perms + 1] *)
}

val trivial : t
(** The one-element group: no reduction possible (or wanted). *)

val order : t -> int

val max_threads : int
(** Discovery is brute force over processor permutations; programs wider
    than this get {!trivial} (the factorial dominates past it). *)

val of_prog : Prog.t -> t
(** The full automorphism group of a program, by positional unification
    of instruction lists under every candidate processor permutation. *)

val cached : Prog.t -> t
(** {!of_prog} memoized process-wide on physical program identity.
    Thread-safe (racing domains at worst recompute the immutable group). *)

val apply_final : perm -> Final.t -> Final.t
(** The image of an outcome: memory relocated, register files moved to
    the image processor and renamed (names outside the recorded
    bijections map to themselves).  Used to close recorded outcome sets
    under the group. *)

(** {2 Acting on packed keys} *)

val compile : Layout.t -> t -> Layout.map array
(** Every non-identity automorphism of the group as a byte map over the
    layout's keys ({!Layout.index_map}).  For the state map [sigma] an
    automorphism induces, [canon (sigma st) = permute m (canon st)]: the
    equation orbit pruning rests on. *)

val permute : Layout.map -> string -> string
(** The image of a key. *)

val orbit_min : Layout.map array -> string -> string
(** The least key ([String.compare]) of the key's orbit under the
    compiled group: constant on orbits, so the transposition table can
    identify a state with all its symmetric images.  Physically equal to
    the argument when no image is smaller. *)
