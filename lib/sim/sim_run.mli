(** Running workloads on the timing simulator, with a watchdog.

    A run that stops making progress does not hang: the watchdog detects a
    drained event queue with blocked threads (deadlock) or an exceeded
    event-time limit (livelock) and raises {!Wedged} with a diagnostic dump
    — per-line directory state, cache contents, in-flight transactions and
    the protocol event journal's tail. *)

exception Wedged of string

type result = {
  policy : Cpu.policy;  (** the issue policy that ran *)
  workload : string;  (** workload name *)
  total_cycles : int;  (** completion cycle of the last thread *)
  proc_stats : Cpu.proc_stats array;  (** per-processor aggregates *)
  observations : Cpu.obs list;  (** tagged reads, in observation order *)
  finals : (string * int) list;  (** settled value of every location *)
  messages : int;  (** protocol messages sent *)
  invalidations : int;  (** invalidation messages *)
  deferrals : int;  (** requests delayed by a reserve bit *)
  nacks : int;  (** requests bounced off busy directory lines *)
  txn_timeouts : int;  (** transaction deadline extensions *)
  retransmits : int;  (** lost messages recovered by backoff *)
  dups_suppressed : int;  (** duplicate deliveries discarded *)
  reorders : int;  (** messages buffered to restore per-line order *)
  sanitizer_checks : int;  (** invariant sweeps performed *)
  events : int;  (** engine events executed *)
  trace : Sim_trace.log;
      (** per-operation trace, generation order ({!Sim_trace.events}) *)
  stalls : Obs.Stall.t;  (** stalled cycles by (proc, cause, location) *)
}
(** Everything a finished run reports. *)

type failure =
  | Deadlock of string  (** queue drained with blocked threads; dump *)
  | Livelock of string  (** event limit exceeded; dump *)
  | Invariant of string  (** sanitizer violation; diagnostic *)

val run :
  ?cfg:Sim_config.t ->
  ?limit:int ->
  ?obs:Obs.t ->
  ?on_wedged:(string -> unit) ->
  Cpu.policy ->
  Workload.t ->
  result
(** Deterministic: same inputs, same result.  [cfg.nprocs] is overridden by
    the workload's thread count.  When [cfg.sanitize] is set (the default)
    the coherence sanitizer sweeps the protocol invariants after every
    delivered message and once more at quiescence.  [obs] (default
    {!Obs.null}) receives the full event stream — op lifecycle spans,
    coherence transactions, NACK/defer/reserve instants, counter samples
    and injected-fault marks; stall attribution is always collected and
    returned in the result.  [on_wedged] (default [ignore]) runs with the
    diagnostic just {e before} {!Wedged} is raised — the hook checkpointed
    campaigns use to dump a final resume point before the abort unwinds.
    @raise Wedged on deadlock or livelock (with diagnostic dump)
    @raise Sim_sanitizer.Violation on an invariant violation *)

val try_run :
  ?cfg:Sim_config.t ->
  ?limit:int ->
  ?obs:Obs.t ->
  ?on_wedged:(string -> unit) ->
  Cpu.policy ->
  Workload.t ->
  (result, failure) Stdlib.result
(** [run] with every failure mode reified — for fault-injection campaigns.
    On failure the tracer passed as [obs] retains the events leading up to
    the wedge, so callers can dump the window around an injected fault. *)

val failure_kind : failure -> string
(** ["deadlock"], ["livelock"] or ["invariant"]. *)

val pp_failure : Format.formatter -> failure -> unit
(** The failure kind and its diagnostic dump. *)

val golden_artifact : obs:Obs.t -> result -> string
(** Canonical timing-fingerprint of a run, for golden tests gating
    timing-invisible optimizations: the normalized Chrome trace of [obs]
    (which must have observed the run), the stall-attribution table, the
    settled memory image and the total cycle count.  Engine event counts
    are excluded — they are the optimization's cost metric, not part of
    simulated time. *)

val observation : result -> string -> int option
(** Value recorded under a tag, if the tagged read executed. *)

val final : result -> string -> int option
(** Settled value of a location. *)

val pp : Format.formatter -> result -> unit
(** Multi-line run summary: cycles, messages, per-processor statistics. *)

val pp_proc_stats : Format.formatter -> int * Cpu.proc_stats -> unit
(** One processor's statistics on one line. *)
