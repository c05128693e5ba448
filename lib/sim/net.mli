(** Reliable, per-line-ordered message transport over an unreliable wire.

    The protocol above this layer sees exactly-once, in-send-order delivery
    per line; underneath, the wire may spike latencies, lose attempts
    (recovered by retransmission with exponential backoff) and duplicate
    copies (discarded by sequence number), all driven by a deterministic
    seeded fault schedule.  With no fault profile configured the layer
    reproduces the seed simulator's timing exactly. *)

type t
(** One interconnect instance (all lines share it). *)

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable retransmits : int;  (** lost attempts recovered by backoff *)
  mutable dups_suppressed : int;  (** duplicate copies discarded by seq id *)
  mutable reorders : int;  (** messages held to restore per-line order *)
}
(** Transport-layer counters (independent of protocol statistics). *)

val create : ?obs:Obs.t -> names:string array -> Sim_config.t -> Engine.t -> t
(** A fresh transport over [eng] with the latency/fault model of [cfg],
    with one channel per line id; [names.(line)] names the line in trace
    events.  [obs] (default {!Obs.null}) receives a [fault]-category
    instant for every injected drop, delay spike or duplication. *)

val send : t -> line:int -> (unit -> unit) -> unit
(** Send a message concerning line id [line]; the thunk runs at the
    receiver when the message is (finally) delivered. *)

val line_quiescent : t -> int -> bool
(** No message concerning the line is still in flight. *)

val set_monitor : t -> (unit -> unit) -> unit
(** Install a hook that runs after each delivered message's effects —
    where the coherence sanitizer attaches. *)

val stats : t -> stats
(** The live counters (mutated as the run proceeds). *)

val fault_counts : t -> Fault.counts option
(** Injected-fault tallies, when a fault profile is configured. *)

val pp_stats : Format.formatter -> stats -> unit
(** One-line rendering of {!stats}. *)
