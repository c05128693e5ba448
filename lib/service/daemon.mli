(** The long-lived verification daemon behind [weakord serve].

    The daemon's request grammar over the {!Supervisor} kernel: clients
    on a Unix-domain socket speak the {!Wire} protocol
    ([SUBMIT]/[STATUS]/[RESULT]/[CANCEL]/[STATS]/[DRAIN]; spec in
    [docs/PROTOCOL.md]); submitted jobs become {e tickets} run under
    {!Batch.verdicts}, the same timeout / retry-with-backoff /
    poison-quarantine policy as [weakord batch], against one
    {!Verdict_cache} shared by every client — including the
    orbit-canonical symmetry key, so a job completes instantly when any
    client ever paid for a verdict of any program in its renaming
    class.

    {1 Fairness}

    Each client owns a FIFO queue of its pending tickets and dispatch
    round-robins across clients, so a bulk submitter cannot starve an
    interactive one.  Tickets restored by [--resume] belong to a
    synthetic orphan client that takes its round-robin turn like any
    other.

    {1 Shutdown contract}

    [SIGTERM], [SIGINT] or a [DRAIN] request start a graceful drain:
    admission stops ([ERR 503] to new [SUBMIT]s and connections),
    in-flight workers receive [SIGTERM] and park their jobs at a safe
    point (worker exit [9]), every unfinished ticket is checkpointed
    ([weakord.daemon] snapshot), blocked [RESULT … WAIT]s are answered
    [ERR 503], and {!run} returns with [suspended = true] when
    anything was left — the CLI maps that to exit [3], mirroring
    [weakord batch].  A periodic checkpoint also runs while serving,
    so even [SIGKILL] loses at most ~250 ms of queue state; finished
    verdicts are never lost (they are already in the cache and the
    JSONL log).  [--resume] then re-enqueues the checkpointed tickets
    as orphans. *)

type cfg = {
  socket : string;  (** Unix-domain socket path to bind *)
  out : string option;
      (** JSONL audit log, appended like [batch -o] — one record per
          finished ticket, same schema (record ids are ticket ids) *)
  workers : int;  (** max concurrent forked workers *)
  timeout_s : float;  (** per-attempt wall clock before SIGKILL *)
  retries : int;  (** attempts before quarantine *)
  backoff_ms : int;  (** base retry backoff (exponential + jitter) *)
  cache : Verdict_cache.t;  (** shared verdict cache *)
  checkpoint : string option;  (** snapshot path for drain/periodic saves *)
  resume : string option;  (** checkpoint to restore orphan tickets from *)
  model : Worker.model;  (** synchronization model for every job *)
  machine : string;  (** default machine for job lines naming none *)
  fuel : int option;  (** exploration fuel bound per job *)
  spill_dir : string option;  (** visited-store spill root *)
  mem_budget : int option;  (** visited-set memory budget, bytes *)
  max_clients : int;  (** concurrent connections before refusing *)
  log : string -> unit;  (** operator log sink *)
  verbose : bool;  (** log per-attempt worker lifecycle events *)
}

val default_cfg : cfg
(** Socket [weakord.sock], 4 workers, 10 s timeout, 3 retries, 100 ms
    backoff, in-memory cache, 64 clients, silent. *)

type summary = {
  submitted : int;  (** tickets accepted over all connections *)
  completed : int;  (** verdicts delivered (cached or computed) *)
  violations : int;  (** completed verdicts with [v_violation] *)
  quarantined : int;  (** tickets that exhausted their retries *)
  cancelled : int;  (** tickets cancelled by clients *)
  pending : int;  (** tickets checkpointed unfinished at drain *)
  served_from_cache : int;  (** completions without forking *)
  sym_dedup : int;  (** cache hits via the symmetry key only *)
  states_total : int;
      (** machine states expanded by non-cached verdicts — the
          numerator of the states-per-second throughput headline *)
  clients_total : int;  (** connections accepted over the lifetime *)
  cache : Verdict_cache.stats;
  suspended : bool;  (** drained with unfinished tickets *)
  wall_s : float;
}
(** What one daemon lifetime did, reported when {!run} returns. *)

exception Startup_error of string
(** The daemon could not start (socket in use, unreadable or
    mismatched resume checkpoint) — exit [2] territory, raised before
    any job runs. *)

val run : cfg -> summary
(** [run cfg] binds the socket and serves until drained.  Only returns
    after a graceful drain (signal or [DRAIN] request); propagates
    {!Startup_error} on misconfiguration.  Signal handlers for
    [SIGTERM]/[SIGINT]/[SIGPIPE] are installed for the duration and
    restored before returning. *)

val exit_code : summary -> int
(** [3] when [suspended] (unfinished tickets were checkpointed;
    restart with [--resume]), else [0]. *)

val pp_summary : Format.formatter -> summary -> unit
(** Multi-line operator summary: jobs, cache amortization and the
    states/s throughput headline. *)
