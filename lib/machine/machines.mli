(** Registry of abstract hardware machines.

    Each machine assigns a program the exhaustive set of outcomes it can
    produce, computed by a reachability sweep ({!Explore}) of a
    nondeterministic operational model whose states are packed keys
    ({!Layout}): each machine is one labeled transition function that
    copies the parent key and rewrites the slots a step changes. *)

type t

val name : t -> string
val descr : t -> string
val outcomes : t -> Prog.t -> Final.Set.t

val explore :
  ?domains:int ->
  ?adaptive:bool ->
  ?reduce:bool ->
  ?por_min_instrs:int ->
  ?fuel:int ->
  ?rcfg:Explore.rcfg ->
  t ->
  Prog.t ->
  Explore.run_result
(** The full-control entry point: [~domains:n] explores with [n] parallel
    domains (default 1 — the sequential engine), [~adaptive] (default
    [true]) lets the engine fall back to the sequential path when extra
    domains cannot help (more domains than recognized cores, or a state
    space too small to spill), [~reduce] (default [true]) enables each
    machine's partial-order reduction oracle — outcome sets are identical
    either way; [~reduce:false] forces the full sweep — [~fuel] bounds
    distinct states expanded, [~rcfg] threads the resilience layer
    (budgets, checkpoints, resume), and the result carries
    {!Explore.stats} telemetry.  A [Complete] result is identical for
    every [domains].  Programs below [por_min_instrs] instructions
    (default {!Explore.por_min_instrs_default}) skip the oracle machinery
    even with [~reduce:true]; [~por_min_instrs:0] forces it on — the
    differential-test hook.
    (The [sc] reference machine enumerates interleavings with its own
    partial-order reduction instead, honouring [~reduce] and the same
    size guard; it honours [rcfg.budget] but never snapshots — its
    frontier is an interleaving prefix, not a state set.) *)

val snapshot_frontier_length : t -> string -> int
(** Frontier length recorded in a machine's framed snapshot bytes.
    @raise Explore.Resume_rejected on invalid bytes or the [sc]
      machine. *)

val outcomes_bounded : t -> fuel:int -> Prog.t -> Final.Set.t Explore.bounded
(** Fuel-bounded exploration: expand at most [fuel] distinct states.
    Always terminates; [Partial] carries a sound subset of the complete
    outcome set.  (The [sc] reference machine enumerates interleavings
    directly and always reports [Complete].) *)

val sc : t
(** Atomic, in-program-order reference machine. *)

val wbuf : t
(** Per-processor FIFO write buffers with read bypass and forwarding
    (Figure 1's bus configurations).  Not weakly ordered w.r.t. DRF0. *)

val ooo : t
(** Out-of-order issue constrained only by register interlocks,
    same-location order and fences (Figure 1's network configurations). *)

val def1 : t
(** Definition-1 weak ordering: a sync operation waits for all previous
    accesses to be globally performed, and nothing issues past a sync. *)

val def2 : t
(** The paper's Section 5.1/5.3 implementation: syncs commit without
    waiting for the issuing processor's pending writes; other processors'
    syncs on the same location wait instead (reservations / condition 5). *)

val def2_rs : t
(** [def2] with the Section-6 read-only-sync refinement. *)

val rp3 : t
(** The RP3 fence option (Section 2.1): synchronization is invisible to
    the hardware; only explicit fences wait for outstanding
    acknowledgements.  Weakly ordered w.r.t. the fenced-delays model, not
    DRF0. *)

val rc : t
(** Release consistency: a release waits for the issuer's previous
    accesses; an acquire does not.  Weakly ordered w.r.t. DRF1 — the
    "other synchronization models" direction the paper's conclusions
    anticipate. *)

val all : t list
val find : string -> t option

val allows : t -> Prog.t -> Cond.t -> bool
val allows_exists : t -> Prog.t -> bool option

val appears_sc : ?sc:Final.Set.t -> t -> Prog.t -> bool
(** Definition 2's "appears sequentially consistent", for one program:
    the machine's outcomes are a subset of the SC outcomes.  [?sc]
    supplies the SC reference set; by default it comes from the
    process-wide {!Sc.outcomes_cached}, so sweeps over many machines per
    program enumerate SC once. *)
