(** The supervised batch verification service: the {!Supervisor}
    kernel fed from a job file.

    Each job is one kernel unit, so a batch inherits the kernel's crash
    isolation (one forked worker per attempt), per-job timeouts, retry
    with deterministic backoff, and graceful drain on SIGTERM/SIGINT.
    The batch adds its policy:
    - {b verdicts}: served from and recorded to a persistent
      {!Verdict_cache} when possible, so replaying a corpus is nearly
      free ({!verdicts});
    - {b poison quarantine}: a job that exhausts its attempts is
      quarantined with the worker's last stderr captured for triage,
      and the batch carries on;
    - {b deadline}: [cfg.deadline_s] is a self-inflicted drain;
    - {b resume}: [cfg.resume] validates the checkpoint against the job
      list's fingerprint and model, and re-runs only unfinished jobs.

    Results stream as JSONL (one object per job, in completion order) to
    [cfg.out]; quarantined jobs produce a record carrying the full
    reproduction recipe (seed + generator flags) and captured stderr. *)

type cfg = {
  out : string option;  (** results JSONL path; [None] = stdout *)
  workers : int;  (** concurrent forked workers (>= 1) *)
  timeout_s : float;  (** per-job wall clock before SIGKILL *)
  retries : int;  (** max attempts per job (>= 1) *)
  backoff_ms : int;  (** base backoff between attempts *)
  cache : Verdict_cache.t;
  checkpoint : string option;  (** crash-safe queue snapshot path *)
  resume : string option;  (** checkpoint to resume from *)
  deadline_s : float option;  (** whole-batch budget; drains at expiry *)
  model : Worker.model;  (** the Definition-2 synchronization model *)
  fuel : int option;  (** per-job state bound forwarded to workers *)
  spill_dir : string option;
      (** visited-set spill area: each worker spills into its own
          [jobN] subdirectory (created on demand, removed after the
          attempt), so memory-budgeted jobs stay complete instead of
          degrading *)
  mem_budget : int option;  (** per-job visited-set byte budget *)
  log : string -> unit;  (** supervisor event log (CLI: stderr) *)
  verbose : bool;  (** log per-attempt worker lifecycle events *)
}

val default_cfg : cfg
(** 4 workers, 10 s timeout, 3 attempts, 100 ms backoff, in-memory
    cache, drf0, silent log. *)

type summary = {
  total : int;  (** jobs in the (expanded) job list *)
  completed : int;  (** verdicts emitted, this run + resumed-from runs *)
  ok : int;  (** [completed - violations] *)
  violations : int;
      (** Definition-2 counterexamples found, this run + resumed-from runs *)
  quarantined_total : int;  (** including resumed-from runs *)
  pending : int;  (** jobs not finished (> 0 only when suspended) *)
  served_from_cache : int;  (** verdicts answered without forking *)
  sym_dedup : int;
      (** cache hits served through the symmetry key: the job's exact
          text was never verified, a renaming of it was *)
  cache : Verdict_cache.stats;
  suspended : bool;  (** a signal or the deadline drained the batch *)
  wall_s : float;
}

exception Resume_rejected of string
(** The resume checkpoint failed validation (CRC, kind, job-list
    fingerprint, or model mismatch). *)

val run : cfg -> Job.t list -> summary
(** Run the batch to completion or drain.  Fork-based: call from a
    single-domain process (the CLI); a worker never spawns domains.
    @raise Invalid_argument on a non-positive [workers]/[retries]
    @raise Resume_rejected when [cfg.resume] is unusable *)

val exit_code : summary -> int
(** The [weakord batch] exit-code contract: [3] suspended (resume point
    written when configured), else [1] when any violation was found,
    else [4] when any job was quarantined, else [0]. *)

val pp_summary : Format.formatter -> summary -> unit
(** The human summary the CLI prints to stderr, including cache
    hit/miss/corrupt counters. *)

(** {1 The verdict policy}

    Shared with {!Daemon}: a unit of work is one job. *)

type job = { job : Job.t; mat : Runner.mat }

type tally = {
  mutable completed : int;
  mutable violations : int;
  mutable quarantined : int;
  mutable served_from_cache : int;
  mutable sym_dedup : int;  (** cache hits via the symmetry key only *)
  mutable states : int;  (** states expanded by non-cached verdicts *)
}

val tally : unit -> tally
(** All zero. *)

val job_work :
  ?attempts:int -> owner:int -> model:Worker.model -> Job.t -> job Supervisor.work
(** A unit for the job, materialized under [model]; its id is the job's. *)

val job_cfg :
  workers:int ->
  retries:int ->
  backoff_ms:int ->
  timeout_s:float ->
  resident:bool ->
  out:Supervisor.sink ->
  listen:(Unix.file_descr * string) option ->
  max_clients:int ->
  log:(string -> unit) ->
  verbose:bool ->
  job Supervisor.cfg
(** The kernel configuration for verdict workers (wall-clock watchdog). *)

val verdicts :
  job Supervisor.t ->
  cache:Verdict_cache.t ->
  attempt:
    (cancelled:(unit -> bool) -> result_path:string -> Job.t -> Runner.mat -> unit) ->
  tally ->
  settled:(job Supervisor.work -> Verdict_cache.verdict option -> string -> unit) ->
  parked:(job Supervisor.work -> unit) ->
  (job Supervisor.work -> unit)
  * (job Supervisor.work -> Supervisor.exit -> ms:float -> unit)
(** The kernel's [start] and [on_exit] for verdict jobs.  [start]
    quarantines an unusable job at once, answers from the cache (exact
    key, then symmetry key) when it can, and otherwise forks [attempt]
    (a partial application of {!Runner.attempt}).  A verdict is cached, tallied and streamed; a
    failed attempt retries; an exhausted job is quarantined and
    streamed.  [settled w v record] runs after either final record
    ([v = None] for a quarantine); [parked w] gets a job its worker
    left at a drain's safe point. *)
