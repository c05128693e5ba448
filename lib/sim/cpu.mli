(** Processor issue policies interpreting workload threads over the
    coherence protocol.

    Each policy realizes one hardware strategy from the paper: [Sc] is
    Lamport-conservative hardware, [Def1] is Definition-1 weak ordering
    (stall the processor at every synchronization operation until its
    outstanding accesses drain), [Def2] is the Section 5.3 implementation
    (commit early, shift the wait to the next synchronizing processor via
    reserve bits), and [Def2_rs] adds the Section 6 read-only-sync
    refinement.  Every wrapper records the operation in the architectural
    trace, emits an {!Obs} lifecycle span, and attributes stalled cycles
    to a cause in the protocol's stall table ({!Proto.stall}).  Locations
    are line ids of the context's protocol instance. *)

type policy =
  | Sc
  | Def1
  | Def2
  | Def2_rs
  | Def2_noresv
      (** deliberately broken ablation: Section 5.3 without reserve bits;
          violates condition 5 (kept out of {!all_policies}) *)

val policy_name : policy -> string
(** Short CLI/bench spelling of a policy, e.g. ["def2-rs"]. *)

val all_policies : policy list
(** The four correct policies. *)

val ablation_policies : policy list
(** Deliberately broken variants, for sanitizer tests only. *)

(** {1 Stall-cause tags}

    The spellings used in the {!Obs.Stall} attribution table (the names
    of the {!Proto.stall_cause} values); shared constants so the bench,
    the CLI and the tests agree. *)

val cause_counter : string
(** ["counter-nonzero"]: Definition-1 condition 2 — waiting for the
    outstanding-access counter to drain before a sync issues. *)

val cause_gp : string
(** ["gp-wait"]: waiting for an operation to be globally performed
    (Definition-1 condition 3, and all of SC). *)

val cause_acquire : string
(** ["acquire"]: waiting for a sync to commit — line acquisition,
    including waits on remote reserve bits (Def2 condition 5). *)

val cause_read : string
(** ["read-miss"]: data-read latency beyond a cache hit. *)

type obs = {
  o_proc : int;  (** observing processor *)
  o_tag : string;  (** the workload's observation tag *)
  o_loc : string;  (** location read *)
  o_value : int;  (** value seen *)
  o_time : int;  (** cycle of the observation *)
}
(** A tagged value observation made by a workload read. *)

type proc_stats = {
  mutable finish : int;
  mutable drained : int;
  mutable stall_pre_sync : int;
      (** cycles waiting for the counter before a sync issues (Def1) *)
  mutable stall_sync_gp : int;
      (** cycles waiting for global performance after a sync (Def1/SC) *)
  mutable stall_acquire : int;
      (** cycles waiting for a sync to commit, incl. remote reservations *)
  mutable stall_read : int;
  mutable spin_iters : int;  (** spin-loop iterations executed *)
  mutable lock_retries : int;  (** failed lock acquisition attempts *)
}
(** Aggregate per-processor timing statistics. *)

val fresh_stats : unit -> proc_stats
(** All-zero statistics. *)

type ctx = {
  cfg : Sim_config.t;  (** latency model *)
  eng : Engine.t;  (** the discrete-event engine driving the run *)
  proto : Proto.t;  (** coherence protocol instance *)
  policy : policy;  (** issue policy for every processor *)
  stats : proc_stats array;  (** per-processor aggregates *)
  mutable observations : obs list;  (** tagged reads, newest first *)
  trace : Sim_trace.log;  (** architectural trace, generation order *)
  obs : Obs.t;  (** event tracer ({!Obs.null} to disable) *)
}
(** Everything a processor model needs to interpret a thread. *)

val exec_thread : ctx -> int -> int Workload.op_on list -> (unit -> unit) -> unit
(** Run a thread's operations, over line ids, in order; the continuation
    fires when the last completes (by the policy's notion of
    completion). *)

(** {1 Per-operation wrappers}

    The policy-aware building blocks behind [exec_thread], exposed for
    other interpreters (e.g. [Sim_litmus], which runs [Prog.t] litmus
    tests on the timing simulator). *)

val data_read : ctx -> int -> int -> (int -> unit) -> unit
(** [data_read ctx proc line k]: an ordinary read; [k v] runs with the
    value once it returns (all policies block on data reads). *)

val data_write : ctx -> int -> int -> int -> (unit -> unit) -> unit
(** An ordinary write; SC waits for global performance, the weak
    policies continue one cycle after handing it to the memory system. *)

val sync_modify :
  ctx ->
  int ->
  int ->
  reads:bool ->
  writes:bool ->
  (int -> int) ->
  (int -> unit) ->
  unit
(** Synchronization RMW: acquire the line exclusive, apply the function;
    the continuation receives the old value when the policy lets the
    processor continue. *)

val sync_read : ctx -> int -> int -> (int -> unit) -> unit
(** A read-only synchronization operation — an exclusive acquisition
    under base Def2, a coherent read under [Def2_rs]. *)

val spin_delay : ctx -> (unit -> unit) -> unit
(** One spin-loop backoff interval. *)
