(** The supervisor kernel under [weakord batch], [serve] and [fleet].

    One single-threaded event loop owns the whole life of a unit of
    work, from queue to final record:

    - {b queue}: one FIFO per owner, served round-robin.  Batch and
      fleet have a single owner, so theirs is a plain FIFO; the daemon's
      owners are its client connections, plus owner [-1] for tickets
      restored by a resume.
    - {b attempts}: each dispatch forks a worker through
      {!Runner.fork_worker}; its exit is classified once per
      [runner.mli]'s contract ({!type-exit}).
    - {b watchdog}: a worker that makes no progress within [timeout_s]
      is SIGKILLed.  Progress is wall time since the start, or with
      [heartbeat] the time since its heartbeat file last changed.
    - {b retry}: failed attempts requeue after {!backoff_delay_ms}; the
      front end decides what an exhausted unit becomes.
    - {b drain}: SIGTERM/SIGINT, a caller-given predicate (deadline,
      memory budget) or a [DRAIN] request stops dispatch and forwards
      SIGTERM once to every worker; exit-9 units are parked.
    - {b checkpoint}: a caller-given writer, throttled to one call per
      0.25 s and forced once at the end.
    - {b output}: the append-mode JSONL stream, the scratch directory
      for result/stderr/heartbeat files, and the queue/worker gauges.
    - {b wire}: with a listening socket, the idle wait is a [select]
      that runs every connection through one pump: accept, read,
      write, and the [HELLO]/[PING]/[STATS]/[DRAIN]/[BYE] replies.
      Other verbs go to the front end. *)

type state =
  | Waiting  (** in its owner's queue *)
  | Backoff  (** waiting out a retry delay *)
  | Running  (** a worker is on it *)
  | Finished  (** settled, or withdrawn *)

type files = { result : string; stderr : string; heartbeat : string }
(** Per-attempt scratch files: the worker's result file, its captured
    stderr, and its heartbeat (read only with [cfg.heartbeat]). *)

type 'a work = {
  id : int;  (** keys the backoff jitter *)
  owner : int;  (** the queue it waits in *)
  payload : 'a;
  mutable attempts : int;  (** failed attempts so far *)
  mutable state : state;
  mutable eligible_at : float;
  mutable reason : string;  (** last failure reason *)
  mutable stderr_tail : string;  (** last failed attempt's stderr tail *)
  mutable beat : string;  (** last heartbeat content seen *)
  mutable files : files;  (** the current or last attempt's files *)
}

val work : ?attempts:int -> id:int -> owner:int -> 'a -> 'a work
(** A fresh [Waiting] unit, not yet queued. *)

type exit =
  | Exit_ok  (** exit 0: the result file holds the outcome, if valid *)
  | Exit_parked  (** exit 9: stopped at a safe point by a drain *)
  | Exit_failed of string  (** a failed attempt, with its reason *)
  | Exit_hung  (** SIGKILLed by the watchdog *)

type sink = Stdout | Append of string | Discard

type 'a cfg = {
  noun : string;
      (** ["worker"] or ["shard"], in reasons, logs and the scratch
          directory's name *)
  item : string;  (** ["job"] or ["unit"], in logs *)
  label : 'a -> string;  (** a unit's name in logs *)
  slots : int;  (** concurrent workers *)
  retries : int;  (** attempts before a unit is exhausted *)
  backoff_ms : int;
  timeout_s : float;  (** watchdog budget *)
  heartbeat : bool;  (** progress is heartbeat change, not wall time *)
  resident : bool;  (** keep serving with no work, until drained *)
  out : sink;  (** the JSONL stream *)
  listen : (Unix.file_descr * string) option;
      (** listening socket and its path, unlinked at the end *)
  max_clients : int;  (** connections beyond this are refused *)
  log : string -> unit;
  verbose : bool;  (** log per-attempt lifecycle events *)
}

type 'a t

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_dec : Wire.decoder;
  c_out : Buffer.t;
  mutable c_hello : bool;
  mutable c_closing : bool;
  mutable c_submitted : int;
  mutable c_completed : int;
}
(** One wire connection; its id is its owner id. *)

val backoff_delay_ms : base:int -> attempt:int -> job_id:int -> int
(** Delay before retry number [attempt] (1-based count of failures so
    far) of [job_id]: [base * 2^(attempt-1)] plus a deterministic jitter
    in [0, base) derived from [(job_id, attempt)] — reproducible
    schedules, no thundering herd. *)

val create : 'a cfg -> 'a t
(** Make the scratch directory, open the stream, and install the
    SIGTERM/SIGINT drain handlers (and, with a socket, ignore SIGPIPE)
    until {!run} returns. *)

val run :
  'a t ->
  ?should_drain:(unit -> string option) ->
  ?save:(unit -> unit) ->
  ?stats:(unit -> string) ->
  ?request:(conn -> Wire.request -> unit) ->
  ?stop:(unit -> unit) ->
  start:('a work -> unit) ->
  on_exit:('a work -> exit -> ms:float -> unit) ->
  unit ->
  unit
(** Run the loop until no work is left, or until drained when
    [resident]; then force a last checkpoint and release everything
    {!create} took, also on an exception.
    - [start w]: [w] was popped for dispatch; settle it or {!spawn} it.
    - [on_exit w e ~ms]: [w]'s worker ended ([w] is [Waiting] again);
      {!finish}, {!retry}, {!enqueue} or otherwise settle it.
    - [should_drain ()]: [Some msg] starts a drain and logs [msg].
    - [save ()]: write the checkpoint, from {!pending}.
    - [stats ()]: the [STATS] reply; [request]: other verbs (by
      default [ERR 404]).
    - [stop ()]: runs after the loop, before the last replies flush. *)

val spawn : 'a t -> 'a work -> (files -> (unit -> bool) -> unit) -> unit
(** [spawn t w child] forks an attempt: [child files cancelled] runs in
    the worker with stderr captured and SIGTERM/SIGINT flipping
    [cancelled], and must end per the exit-status contract. *)

val enqueue : 'a t -> 'a work -> unit
(** Append to the owner's queue (new, or parked by a drain). *)

val retry : 'a t -> 'a work -> string -> bool
(** Count a failed attempt with its reason and stderr tail.  [true]:
    requeued after the backoff; [false]: attempts reached [retries],
    the caller settles the unit. *)

val delay : 'a t -> 'a work -> int
(** Requeue after the backoff for [w.attempts], counting nothing;
    returns the delay in ms. *)

val finish : 'a t -> 'a work -> string list -> unit
(** Settle a unit and stream its final records. *)

val withdraw : 'a t -> 'a work -> unit
(** Take a queued unit out for good, or SIGTERM its running worker. *)

val cfg : 'a t -> 'a cfg
val draining : 'a t -> bool

val pending : 'a t -> 'a work list
(** Every unit not finished: queued, backing off or running. *)

val pending_count : 'a t -> int

val queue_depth : 'a t -> int
(** Queued and backing-off units; a withdrawn unit still counts until
    dispatch skips it. *)

val running_count : 'a t -> int

val uptime : 'a t -> float
val queue_gauge : 'a t -> Obs.Gauge.t
val running_gauge : 'a t -> Obs.Gauge.t
val clients_total : 'a t -> int
val conns : 'a t -> conn list
val conn : 'a t -> int -> conn option
val send : conn -> string -> unit
(** Queue one reply payload on a connection. *)

(** {1 Sockets and snapshots} *)

val bind : string -> (Unix.file_descr, string) result
(** Listen on a Unix-domain socket.  A stale socket file is replaced; a
    live one, or a path that is not a socket, is an error. *)

val save_snapshot : kind:string -> meta:string -> string -> 'a -> unit
(** Write a value as a CRC-framed, two-generation snapshot of [kind]. *)

val load_snapshot : kind:string -> string -> ('a * bool, string) result
(** Load a snapshot written by {!save_snapshot} under the same [kind]
    (the caller names the type); [bool] is true when it was recovered
    from the [.prev] generation. *)
