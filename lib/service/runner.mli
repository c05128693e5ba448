(** The per-attempt layer under the {!Supervisor} kernel.

    None of [weakord batch], [serve] or [fleet] verifies anything
    in-process: every attempt at a unit of work runs in a worker forked
    by the kernel, which computes its result, installs it atomically
    into a CRC-framed result file, and [_exit]s.  This module holds what
    one attempt needs — materializing a {!Job.t} into a program plus
    cache keys, the verdict worker's body, the result-file protocol,
    and the JSONL records the front ends stream — so the kernel and its
    three front ends cannot drift apart on exit statuses or record
    shapes.  Nothing here blocks, loops or schedules.

    {1 Worker exit-status contract}

    A forked worker terminates in exactly one of these ways, and the
    kernel classifies them once for every front end:

    - exit [0] and a valid result file — the attempt's result (a
      verdict, or a fleet shard's unit tallies).
    - exit [0] with a missing or corrupt result file — a torn write;
      counts as a failed attempt.
    - exit [9] — cancelled at a safe point (drain); the unit is {e not}
      failed, it returns to its queue for the resume.
    - exit [10] — the verification engine raised; the exception text is
      on stderr.  Failed attempt.
    - killed by a signal — [SIGKILL] from the kernel's watchdog, or
      anything else (OOM killer, crash).  Failed attempt. *)

(** {1 Materialization} *)

type mat = {
  m_prog : (Prog.t * string * string) option;
      (** program, exact cache key, orbit-canonical symmetry key;
          [None] for wedge jobs (which have no program) and for
          unusable jobs (see [m_error]) *)
  m_error : string option;
      (** why the job cannot run (unknown builtin, parse error,
          unknown machine); retrying cannot help — supervisors send
          such jobs straight to quarantine *)
}
(** The result of turning a job description into something runnable. *)

val materialize : model:Worker.model -> Job.t -> mat
(** [materialize ~model j] resolves [j]'s source (builtin name, litmus
    file, generator seed) into a program and computes both verdict-cache
    keys under [model].  Deterministic; safe to call in the parent
    before forking (generation is pure, file reads happen once). *)

(** {1 The forked worker} *)

val fork_worker : (unit -> unit) -> int
(** [fork_worker child] flushes the parent's [stdout]/[stderr] (so
    buffered bytes are not emitted twice), forks, runs [child] in the
    child process and [_exit 0]s if it returns; the parent gets the
    pid.  The one fork under every kernel attempt and the fleet's hang
    probe — any [child] must honor the exit-status contract above. *)

val redirect_stderr : string -> unit
(** Point the process's [stderr] at a capture file (truncating);
    best-effort, for use inside forked workers before any output. *)

val write_framed : kind:string -> meta:string -> string -> 'a -> unit
(** [write_framed ~kind ~meta path v] atomically installs [v] as a
    CRC-framed result file — the child half of the result-file
    protocol.  No [fsync] (a torn write is detected, not prevented). *)

val read_framed : kind:string -> string -> 'a option
(** [read_framed ~kind path] loads a result file written under [kind]
    (the caller names the type); [None] on any defect — missing file,
    CRC mismatch, another kind, truncation — so a torn write degrades
    to a retried attempt, never a wrong result.  The parent half of the
    result-file protocol. *)

val attempt :
  model:Worker.model ->
  ?fuel:int ->
  ?spill_dir:string ->
  ?mem_budget:int ->
  cancelled:(unit -> bool) ->
  result_path:string ->
  Job.t ->
  mat ->
  unit
(** [attempt ~model ~cancelled ~result_path j m] is the body of one
    verdict attempt, run in a worker the kernel forked (stderr already
    captured, SIGTERM already pointed at [cancelled]): {!Worker.run}
    (or the wedge spin loop for {!Job.Wedge} jobs), the verdict written
    to [result_path] via an atomic install, and termination per the
    exit-status contract above.  Never returns.  [spill_dir] is a root:
    each job spills into a private [jobN/] subdirectory, so concurrent
    workers and retries never share run files. *)

val read_result : string -> Verdict_cache.verdict option
(** {!read_framed} for a verdict worker's result file. *)

(** {1 JSONL rendering}

    Every record is a single line.  The stable fields come first (job
    identity, and for seed jobs the [seed] + [gen] reproduction
    recipe); the volatile trailer [,"cached":_,"attempts":_,"ms":_}]
    always comes last in a fixed order so tooling can strip it with one
    regular expression when diffing runs modulo timing. *)

val record_trailer : cached:bool -> attempts:int -> ms:float -> string
(** The volatile trailer every JSONL record ends with, in the fixed
    order tooling strips: [,"cached":_,"attempts":_,"ms":_}].  Exposed
    so the fleet's unit/poison records stay strippable by the same
    regular expression as batch and daemon records. *)

val verdict_record :
  Job.t -> Verdict_cache.verdict -> cached:bool -> attempts:int -> ms:float -> string
(** [verdict_record j v ~cached ~attempts ~ms] renders a completed
    job's verdict as one JSONL line ([status:"ok"]), including the
    engine telemetry fields [degraded] and [spilled_runs]. *)

val quarantine_record :
  Job.t -> reason:string -> stderr:string -> attempts:int -> ms:float -> string
(** [quarantine_record j ~reason ~stderr ~attempts ~ms] renders a
    poison job's terminal record ([status:"quarantined"]) carrying the
    last failure reason and the worker's captured stderr tail. *)

val json_escape : string -> string
(** [json_escape s] escapes [s] for embedding inside a JSON string
    literal (quotes, backslashes, control characters). *)
