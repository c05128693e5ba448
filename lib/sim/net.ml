(* The interconnect: a reliable, per-line-ordered message layer built on an
   unreliable wire.

   The directory protocol (like real directory protocols without transient
   states) relies on messages about one line being delivered in send order,
   and on every message being delivered exactly once.  A general
   interconnection network guarantees neither, so this module implements
   the classic transport recipe on top of whatever the wire does:

   - every message gets a per-line sequence number (its transaction /
     message id);
   - the receiver delivers strictly in sequence order, holding early
     arrivals in a reorder buffer until the gap fills;
   - duplicated copies are recognized by their sequence number and
     discarded (idempotence);
   - lost attempts are recovered by retransmission with exponential
     backoff: a message dropped [k] times is re-sent after
     [rto * 2^k] cycles, so transient loss degrades latency instead of
     wedging the protocol.

   Faults come from a deterministic seed-driven schedule ([Fault]); with no
   fault profile configured the layer reduces to the seed simulator's
   behaviour exactly (fixed hop latency plus optional deterministic
   jitter, per-line delivery in send order). *)

type chan = {
  mutable next_send : int;  (** next sequence number to assign *)
  mutable next_deliver : int;  (** lowest sequence not yet delivered *)
  arrived : (int, unit -> unit) Hashtbl.t;  (** reorder buffer *)
  mutable undelivered : int;  (** sent but not yet handed to the protocol *)
  mutable last_time : int;  (** latest delivery time used on this line *)
}

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable retransmits : int;  (** lost attempts recovered by backoff *)
  mutable dups_suppressed : int;  (** duplicate copies discarded by seq id *)
  mutable reorders : int;  (** messages held to restore per-line order *)
}

type t = {
  cfg : Sim_config.t;
  eng : Engine.t;
  fault : Fault.t option;
  chans : chan array;  (** indexed by line id *)
  names : string array;  (** line id -> location, for trace events *)
  stats : stats;
  mutable on_delivery : unit -> unit;
      (** monitor hook, run after each delivered message's effects *)
  obs : Obs.t;
}

let create ?(obs = Obs.null) ~names cfg eng =
  {
    cfg;
    eng;
    obs;
    fault =
      Option.map
        (fun profile -> Fault.create ~profile cfg.Sim_config.fault_seed)
        cfg.Sim_config.faults;
    chans =
      Array.map
        (fun _ ->
          {
            next_send = 0;
            next_deliver = 0;
            arrived = Hashtbl.create 4;
            undelivered = 0;
            last_time = 0;
          })
        names;
    names;
    stats =
      { sent = 0; delivered = 0; retransmits = 0; dups_suppressed = 0; reorders = 0 };
    on_delivery = (fun () -> ());
  }

let stats t = t.stats
let fault_counts t = Option.map Fault.counts t.fault
let set_monitor t f = t.on_delivery <- f

let line_quiescent t line = t.chans.(line).undelivered = 0

(* Hand the message at the head of the sequence to the protocol.  Delivery
   times on one line are strictly increasing (the [last_time] floor), so
   events that raced through the network still commit in distinguishable
   cycles. *)
let deliver t chan f =
  chan.next_deliver <- chan.next_deliver + 1;
  t.stats.delivered <- t.stats.delivered + 1;
  let now = Engine.now t.eng in
  let time = max now (chan.last_time + 1) in
  chan.last_time <- time;
  Engine.schedule t.eng ~delay:(time - now) (fun () ->
      chan.undelivered <- chan.undelivered - 1;
      f ();
      t.on_delivery ())

(* Deliver the buffered messages that are now at the head of the
   sequence. *)
let rec drain t chan =
  match Hashtbl.find_opt chan.arrived chan.next_deliver with
  | None -> ()
  | Some f ->
      Hashtbl.remove chan.arrived chan.next_deliver;
      deliver t chan f;
      drain t chan

(* An attempt of message [seq] reaches the receiver.  The head of the
   sequence is never buffered (it would have been delivered), so an
   in-order arrival skips the reorder buffer. *)
let arrive t chan seq f =
  if seq = chan.next_deliver then begin
    deliver t chan f;
    if Hashtbl.length chan.arrived > 0 then drain t chan
  end
  else if seq < chan.next_deliver || Hashtbl.mem chan.arrived seq then
    t.stats.dups_suppressed <- t.stats.dups_suppressed + 1
  else begin
    Hashtbl.add chan.arrived seq f;
    t.stats.reorders <- t.stats.reorders + 1
  end

(* Cumulative backoff before the attempt that finally gets through: a
   message lost [drops] times is retransmitted after rto, 2*rto, 4*rto, ... *)
let drop_penalty t drops =
  let rec sum k acc =
    if k >= drops then acc else sum (k + 1) (acc + (t.cfg.Sim_config.rto lsl k))
  in
  sum 0 0

let send t ~line f =
  let chan = t.chans.(line) in
  let seq = chan.next_send in
  chan.next_send <- seq + 1;
  chan.undelivered <- chan.undelivered + 1;
  t.stats.sent <- t.stats.sent + 1;
  let jitter =
    let j = t.cfg.Sim_config.net_jitter in
    if j <= 0 then 0 else t.stats.sent * 2654435761 land 0x3FFFFFFF mod j
  in
  let decision =
    match t.fault with None -> Fault.benign | Some fl -> Fault.decide fl
  in
  (* Injected faults are worth a mark in the trace: the campaign dumps
     the event window around each one when a run fails. *)
  if decision.Fault.drops > 0 then
    Obs.instant t.obs ~cat:"fault" ~name:"drop" ~tid:0
      ~ts:(Engine.now t.eng) ~loc:t.names.(line) ~cause:"injected";
  if decision.Fault.extra_delay > 0 then
    Obs.instant t.obs ~cat:"fault" ~name:"spike" ~tid:0
      ~ts:(Engine.now t.eng) ~loc:t.names.(line) ~cause:"injected";
  if decision.Fault.duplicate then
    Obs.instant t.obs ~cat:"fault" ~name:"dup" ~tid:0
      ~ts:(Engine.now t.eng) ~loc:t.names.(line) ~cause:"injected";
  t.stats.retransmits <- t.stats.retransmits + decision.Fault.drops;
  let flight =
    t.cfg.Sim_config.net + jitter + decision.Fault.extra_delay
    + drop_penalty t decision.Fault.drops
  in
  Engine.schedule t.eng ~delay:flight (fun () -> arrive t chan seq f);
  if decision.Fault.duplicate then
    (* A redundant copy takes its own path through the network; the
       sequence number identifies it for dedup at the receiver. *)
    Engine.schedule t.eng
      ~delay:(flight + 1 + (t.cfg.Sim_config.net / 2))
      (fun () -> arrive t chan seq f)

let pp_stats ppf s =
  Fmt.pf ppf "sent=%d delivered=%d retransmits=%d dups=%d reorders=%d" s.sent
    s.delivered s.retransmits s.dups_suppressed s.reorders
