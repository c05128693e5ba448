(** The directory-based write-back invalidation protocol of Sections
    5.2–5.3, with RP3-style outstanding-access counters and reserve bits.

    Timing, not semantics: nondeterminism is resolved deterministically by
    the engine, so one run explores one schedule.  The abstract machines in
    [lib/machine] cover the full behaviour space; this simulator measures
    stalls, messages and cycles.

    Messages travel over the reliable transport in [Net], which survives
    injected interconnect faults.  Above it, every miss is a tracked
    transaction with an escalating deadline ([Stuck] when exceeded — the
    protocol never hangs silently), and requests bounced off a long-busy
    directory line retry with exponential backoff (NACK-and-retry). *)

type t
(** One protocol instance: caches, directory, transport, counters. *)

exception Stuck of string
(** The protocol is wedged (a transaction blew through every deadline
    extension, or an invariant such as counter non-negativity broke).  The
    payload is the full diagnostic dump. *)

type line_state = I | S | M
(** MSI cache-line states. *)

type dir_state = Uncached | Shared of Iset.t | Exclusive of int
(** Directory full-map state for one line. *)

type stats = {
  mutable messages : int;
  mutable invalidations : int;
  mutable deferrals : int;  (** requests delayed by a reserve bit *)
  mutable nacks : int;  (** requests bounced off a busy directory line *)
  mutable txn_timeouts : int;  (** transaction deadline extensions *)
}
(** Protocol-layer counters. *)

val create :
  ?init:(string * int) list ->
  ?obs:Obs.t ->
  names:string array ->
  Sim_config.t ->
  Engine.t ->
  t
(** A fresh protocol instance over [eng], for the locations [names]: the
    location [names.(i)] is line id [i] in every call below.  [init]
    seeds memory values.  [obs] (default {!Obs.null}) receives
    transaction spans ([txn] category), NACK/defer/reserve instants and
    outstanding-counter samples ([proto] category), and is passed down to
    the transport for fault instants.
    @raise Invalid_argument when a name repeats or [init] names a
    location outside [names]. *)

val line_id : t -> string -> int
(** The line id of a location.
    @raise Invalid_argument for a location the instance was not created
    with. *)

val line_name : t -> int -> string
(** The location of a line id. *)

val nlines : t -> int
(** Number of lines (interned locations). *)

(** {1 Stall attribution}

    Stalled cycles accumulate in a dense (processor, cause, line) table:
    the processor models charge theirs through {!stall}; the protocol
    charges NACK backoff and reserve-bit deferrals to the {e requesting}
    processor itself. *)

type stall_cause =
  | Counter_nonzero
      (** Definition-1 condition 2: waiting for the outstanding-access
          counter to drain before a sync issues *)
  | Gp_wait  (** waiting for an operation to be globally performed *)
  | Acquire  (** waiting for a sync to commit, incl. remote reservations *)
  | Read_miss  (** data-read latency beyond a cache hit *)
  | Nack_retry  (** NACK backoff cycles *)
  | Reserve_bit
      (** cycles a miss spent deferred behind a remote reservation (the
          wait Definition 2's condition 5 shifts off the synchronizing
          processor) *)

val cause_name : stall_cause -> string
(** The cause's tag in {!Obs.Stall} tables, e.g. ["reserve-bit"]. *)

val cause_nack : string
(** ["nack-retry"]. *)

val cause_reserve : string
(** ["reserve-bit"]. *)

val stall : t -> proc:int -> cause:stall_cause -> line:int -> cycles:int -> unit
(** Charge [cycles] (ignored unless positive) to the processor. *)

val stall_table : t -> Obs.Stall.t
(** The stalls charged so far, as an {!Obs.Stall} table keyed by cause
    tag and location name. *)

val stats : t -> stats
(** The live protocol counters. *)

val net : t -> Net.t
(** The transport underneath this protocol instance. *)

val counter : t -> int -> int
(** Outstanding accesses of a processor (the Section 5.3 counter). *)

val when_counter_zero : t -> int -> (unit -> unit) -> unit
(** Run the thunk when the processor's counter reads zero (immediately if
    it already does). *)

val reserve_if_outstanding : t -> proc:int -> line:int -> unit
(** Set the reserve bit on the processor's copy of [line] if its counter
    is positive (call after committing a synchronization operation). *)

val read :
  ?on_gp:(unit -> unit) -> t -> proc:int -> line:int -> k:(int -> unit) -> unit
(** Blocking read: [k v] runs when the value is bound (cache hit, or line
    arrival on a miss) — the read's commit.  [on_gp] runs when the read is
    globally performed: its value is bound and the write that produced the
    value is globally performed (later than [k] only when a processor reads
    its own not-yet-performed write). *)

val modify :
  ?on_gp:(unit -> unit) ->
  t ->
  proc:int ->
  line:int ->
  f:(int -> int) ->
  on_commit:(int -> unit) ->
  unit
(** Acquire the line exclusive and apply [f] to it; [on_commit old] runs at
    the commit point (local modification) and [on_gp] when the write is
    globally performed (at commit for an exclusive hit; at the directory's
    ack otherwise).  Writes are [modify ~f:(fun _ -> v)]; atomic RMWs pass
    a genuine function. *)

val line_state : t -> int -> int -> line_state
(** [line_state t proc line]: the processor's cached state for the line
    ([I] when absent). *)

val line_value : t -> int -> int -> int
(** The value of the processor's copy of the line (meaningful unless
    [I]). *)

val line_reserved : t -> int -> int -> bool
(** Whether the processor holds a reservation on the line. *)

val line_gp_pending : t -> int -> int -> bool
(** Whether a write by this processor to this line is committed but not
    yet globally performed ([gp] waiters outstanding). *)

(** {1 Line watchers (spin parking)}

    A parked spinner registers a wakeup on (processor, line); the protocol
    fires it synchronously whenever a {e foreign} request changes that
    processor's copy of the line — invalidation or downgrade — which is
    the only way the value a spinning read observes can ever change.  At
    most one watcher per processor (it spins on one location at a time). *)

val watch_line : t -> proc:int -> line:int -> (unit -> unit) -> unit
(** Register the processor's wakeup for [line] (replaces any previous). *)

val unwatch_line : t -> proc:int -> unit
(** Drop the processor's wakeup. *)

val memory_value : t -> int -> int
(** The directory's memory copy of a line (possibly stale while
    Exclusive). *)

val settled_value : t -> int -> int
(** The coherent value of a location once the system is quiescent. *)

(** {1 Monitoring and introspection}

    Used by [Sim_sanitizer] (invariant checks after every protocol state
    change) and by the watchdog's diagnostic dumps. *)

val set_monitor : t -> (unit -> unit) -> unit
(** Install a hook that runs after each delivered message's effects. *)

val nprocs : t -> int
(** Number of processors in the configuration. *)

val dir_state : t -> int -> dir_state
(** The directory's state for a line. *)

val deferred_count : t -> int -> int
(** Foreign requests currently deferred at the processor. *)

val open_txns : t -> (int * int * int) list
(** In-flight transactions as [(txid, proc, line)]. *)

val line_quiescent : t -> int -> bool
(** No transaction, queued request or in-flight message concerns the line:
    its directory state and cached copies must agree. *)

val dump : t -> string
(** Multi-line diagnostic dump: per-line directory state, cache contents,
    counters, in-flight transactions, transport statistics and the tail of
    the protocol event journal.  Journal entries are kept as values and
    rendered here, each with the state it captured when it was written. *)

val pp_line_state : Format.formatter -> line_state -> unit
(** [I]/[S]/[M]. *)

val pp_dir_state : Format.formatter -> dir_state -> unit
(** e.g. [Shared{0,2}], [Exclusive P1]. *)
