(* The cache-coherence substrate of Sections 5.2–5.3: a directory-based,
   write-back invalidation protocol over a general interconnection network.

   - Every processor has a private cache (unbounded: locations are lines,
     one word per line, no evictions).
   - The directory keeps a full map per line (Uncached / Shared sharers /
     Exclusive owner) and serializes transactions per line.
   - On a write miss to a Shared line, the data is forwarded to the
     requester *in parallel* with the invalidations (the paper's protocol);
     invalidation acks return to the directory, which then sends its ack to
     the writer: the write *commits* when it modifies the local copy and is
     *globally performed* when the directory's ack arrives.
   - Every processor keeps the RP3-style counter of outstanding accesses:
     incremented on a miss; decremented when a read's line arrives, when a
     write's line arrives already exclusive (no other copies), or when the
     directory's ack arrives for a write to a previously-shared line.
   - Reserve bits (Section 5.3): a policy may reserve a line after
     committing a synchronization operation while the counter is positive.
     While a line is reserved its owner defers all foreign requests for it
     until the counter reads zero (the paper keeps reserved lines from
     being flushed; we defer service, which subsumes that).  All reserve
     bits clear when the counter reads zero — the paper's coarse rule —
     and, more precisely, each reservation clears as soon as the accesses
     that were outstanding when it was placed (the sync's *previous*
     accesses) have globally performed; the deferred queue is then
     serviced — the paper's "queue of stalled requests".  The refinement
     matters for liveness: two processors alternating sync operations on
     each other's reserved lines (dekker, iriw, all-sync variants) would
     otherwise defer each other forever.

   Resilience (this file plus [Net] and [Sim_sanitizer]): messages travel
   over a transport that survives injected faults — loss (retransmission
   with exponential backoff), duplication (sequence-number dedup) and
   arbitrary delay (per-line reorder buffering).  Above that, every miss is
   a tracked *transaction* with a deadline that escalates to a wedge report
   ([Stuck]) instead of hanging silently, and a directory line that stays
   busy too long NACKs newly arriving requests so the requester retries
   with backoff rather than queueing behind a stall.  A bounded journal of
   recent protocol events feeds the diagnostic dump. *)

exception Stuck of string
(** A transaction exceeded its escalated deadline: the protocol is wedged.
    The payload is a full diagnostic dump. *)

type line_state = I | S | M

(* Locations are interned once per run: every per-line structure below is
   an array indexed by the dense line id, and names appear only at the
   edges (the dump, trace events, the stall table). *)

type line = {
  mutable lstate : line_state;
  mutable lvalue : int;
  mutable reserved : bool;
  mutable resv_deps : Iset.t;
      (** transactions that were outstanding when the reservation was
          placed (the accesses *previous* to the reserving sync, in the
          sense of Section 5.1); the reservation clears when they have all
          globally performed — Section 5.3's counter-zero rule is the
          coarse version and remains as a backstop, but clearing per
          reservation keeps sync-heavy programs (dekker, iriw with sync
          accesses) from deadlocking on mutual reservations *)
  mutable gp_waiters : (unit -> unit) list option;
      (** [Some ws] while a write to this line by its current owner is not
          yet globally performed; [None] otherwise.  Readers of the line
          (the owner reading its own dirty copy) are globally performed
          only once the write is — the paper's definition of a read being
          globally performed. *)
  mutable inflight : (unit -> unit) list option;
      (** [Some ks] while the processor has a transaction outstanding on
          the line; [ks] (newest first) retry after the line arrives *)
  mutable deferred : (int * (unit -> unit)) list;
      (** foreign requests deferred by this reserved line, newest first;
          the int is a per-processor arrival stamp so a drain-all services
          them in arrival order across lines *)
}

type dir_state = Uncached | Shared of Iset.t | Exclusive of int

type dentry = {
  mutable dstate : dir_state;
  mutable mem : int;
  mutable busy : bool;
  mutable busy_since : int;
      (** when the transaction now holding the line started *)
  waiting : (unit -> unit) Queue.t;  (** requests serialized per line *)
  mutable touched : bool;
      (** a request has reached the directory; the dump lists only these *)
}

type pstate = {
  lines : line array;  (** indexed by line id *)
  mutable counter : int;
  mutable zero_waiters : (unit -> unit) list;
  mutable deferred_n : int;  (** total deferred requests, across lines *)
  mutable defer_seq : int;  (** next arrival stamp *)
  mutable open_txns : Iset.t;
      (** this processor's in-flight transaction ids — the set a new
          reservation depends on, maintained here so placing a reservation
          does not scan the global transaction table *)
  mutable reserved_lines : (int * line) list;
      (** lines currently reserved, in reservation order — so clearing
          reservations (per transaction close, or all at counter zero)
          does not scan the whole cache *)
  mutable watcher : (int * (unit -> unit)) option;
      (** a parked spinner's wakeup: runs synchronously when a foreign
          request changes the state of this processor's copy of the line
          (invalidation or downgrade).  At most one — a processor spins on
          one location at a time *)
}

(* A tracked miss: from issue until the access is globally performed.  The
   transport retransmits individual messages; this is the end-to-end
   safety net (and the NACK retry counter). *)
type txn = {
  txid : int;
  tproc : int;
  tline : int;
  twrite : bool;
  tstart : int;
  mutable topen : bool;
  mutable tnacks : int;
  mutable textensions : int;
}

type stats = {
  mutable messages : int;
  mutable invalidations : int;
  mutable deferrals : int;  (** requests delayed by a reserve bit *)
  mutable nacks : int;  (** requests bounced off a busy directory line *)
  mutable txn_timeouts : int;  (** transaction deadline extensions *)
}

(* One protocol event, with its arguments as they were when it happened —
   the directory state is an immutable value, so capturing it snapshots
   it.  Rendered to text only by [dump]. *)
type event =
  | Miss of { proc : int; write : bool; line : int; txid : int }
  | Deadline of { txid : int; extension : int; next : int }
  | Deferred of { line : int; owner : int }
  | Nack of { txid : int; line : int; busy_for : int }
  | Gets of { line : int; proc : int; state : dir_state }
  | Getx of { line : int; proc : int; state : dir_state }
  | Invalidate of { line : int; proc : int }
  | Invalidate_owner of { line : int; proc : int }

type stall_cause =
  | Counter_nonzero
  | Gp_wait
  | Acquire
  | Read_miss
  | Nack_retry
  | Reserve_bit

let ncauses = 6

let cause_index = function
  | Counter_nonzero -> 0
  | Gp_wait -> 1
  | Acquire -> 2
  | Read_miss -> 3
  | Nack_retry -> 4
  | Reserve_bit -> 5

let all_causes =
  [ Counter_nonzero; Gp_wait; Acquire; Read_miss; Nack_retry; Reserve_bit ]

let cause_name = function
  | Counter_nonzero -> "counter-nonzero"
  | Gp_wait -> "gp-wait"
  | Acquire -> "acquire"
  | Read_miss -> "read-miss"
  | Nack_retry -> "nack-retry"
  | Reserve_bit -> "reserve-bit"

let cause_nack = cause_name Nack_retry
let cause_reserve = cause_name Reserve_bit

let journal_cap = 64

type t = {
  cfg : Sim_config.t;
  eng : Engine.t;
  net : Net.t;
  names : string array;  (** line id -> location *)
  ids : (string, int) Hashtbl.t;  (** location -> line id *)
  procs : pstate array;
  dir : dentry array;  (** indexed by line id *)
  stats : stats;
  txns : (int, txn) Hashtbl.t;
  mutable next_txid : int;
  journal : event array;  (** ring: the last [journal_cap] events *)
  journal_at : int array;  (** the cycle of each journal slot *)
  mutable journal_n : int;  (** events ever journaled *)
  stall_cycles : int array;
      (** stalled cycles by (proc, cause, line), densely indexed *)
  obs : Obs.t;
}

let journal t e =
  let i = t.journal_n mod journal_cap in
  t.journal.(i) <- e;
  t.journal_at.(i) <- Engine.now t.eng;
  t.journal_n <- t.journal_n + 1

let fresh_line () =
  {
    lstate = I;
    lvalue = 0;
    reserved = false;
    resv_deps = Iset.empty;
    gp_waiters = None;
    inflight = None;
    deferred = [];
  }

let create ?(init = []) ?(obs = Obs.null) ~names cfg eng =
  let nlines = Array.length names in
  let ids = Hashtbl.create (2 * nlines) in
  Array.iteri
    (fun i n ->
      if Hashtbl.mem ids n then
        invalid_arg ("Proto.create: location " ^ n ^ " named twice");
      Hashtbl.add ids n i)
    names;
  let dir =
    Array.init nlines (fun _ ->
        {
          dstate = Uncached;
          mem = 0;
          busy = false;
          busy_since = 0;
          waiting = Queue.create ();
          touched = false;
        })
  in
  List.iter
    (fun (loc, v) ->
      match Hashtbl.find_opt ids loc with
      | Some i -> dir.(i).mem <- v
      | None -> invalid_arg ("Proto.create: initial value for unknown location " ^ loc))
    init;
  let nprocs = cfg.Sim_config.nprocs in
  {
    cfg;
    eng;
    net = Net.create ~obs ~names cfg eng;
    names;
    ids;
    procs =
      Array.init nprocs (fun _ ->
          {
            lines = Array.init nlines (fun _ -> fresh_line ());
            counter = 0;
            zero_waiters = [];
            deferred_n = 0;
            defer_seq = 0;
            open_txns = Iset.empty;
            reserved_lines = [];
            watcher = None;
          });
    dir;
    stats =
      { messages = 0; invalidations = 0; deferrals = 0; nacks = 0; txn_timeouts = 0 };
    txns = Hashtbl.create 16;
    next_txid = 0;
    journal = Array.make journal_cap (Deferred { line = 0; owner = 0 });
    journal_at = Array.make journal_cap 0;
    journal_n = 0;
    stall_cycles = Array.make (nprocs * ncauses * nlines) 0;
    obs;
  }

let stats t = t.stats
let net t = t.net
let counter t p = t.procs.(p).counter
let nprocs t = t.cfg.Sim_config.nprocs
let nlines t = Array.length t.names
let line_name t line = t.names.(line)

let line_id t loc =
  match Hashtbl.find_opt t.ids loc with
  | Some i -> i
  | None -> invalid_arg ("Proto.line_id: unknown location " ^ loc)

let set_monitor t f = Net.set_monitor t.net f

(* --- stall attribution ------------------------------------------------------ *)

let stall t ~proc ~cause ~line ~cycles =
  if cycles > 0 then begin
    let i =
      (((proc * ncauses) + cause_index cause) * Array.length t.names) + line
    in
    t.stall_cycles.(i) <- t.stall_cycles.(i) + cycles
  end

let stall_table t =
  let st = Obs.Stall.create () in
  let nlines = Array.length t.names in
  for proc = 0 to nprocs t - 1 do
    List.iter
      (fun cause ->
        let base = ((proc * ncauses) + cause_index cause) * nlines in
        for line = 0 to nlines - 1 do
          Obs.Stall.add st ~tid:proc ~cause:(cause_name cause)
            ~loc:t.names.(line)
            ~cycles:t.stall_cycles.(base + line)
        done)
      all_causes
  done;
  st

(* --- line watchers (spin parking) ------------------------------------------ *)

let watch_line t ~proc ~line f = t.procs.(proc).watcher <- Some (line, f)

let unwatch_line t ~proc = t.procs.(proc).watcher <- None

(* A foreign request just changed P[proc]'s copy of [line] (invalidation or
   downgrade): fire the parked spinner's wakeup, synchronously — the waker
   runs inside the delivery event, so [Engine.running_since] tells it how
   the mutation ordered against same-cycle spin iterations. *)
let notify_line t proc line =
  match t.procs.(proc).watcher with
  | Some (l, f) when l = line -> f ()
  | Some _ | None -> ()

let line_of t p line = t.procs.(p).lines.(line)

(* A network hop, via the reliable transport (sequence numbers, reorder
   buffering, retransmission, dedup — see [Net]).  Messages concerning one
   line are delivered in send order; the protocol (like real directory
   protocols without transient states) relies on that. *)
let send t line f =
  t.stats.messages <- t.stats.messages + 1;
  Net.send t.net ~line f

let after_hit t f = Engine.schedule t.eng ~delay:t.cfg.Sim_config.cache_hit f

(* Run [k] once every write to this line is globally performed
   (immediately if none is pending). *)
let when_line_gp t l k =
  match l.gp_waiters with
  | None -> Engine.schedule t.eng ~delay:0 k
  | Some ws -> l.gp_waiters <- Some (k :: ws)

let resolve_line_gp t l =
  match l.gp_waiters with
  | None -> ()
  | Some ws ->
      l.gp_waiters <- None;
      List.iter (fun k -> Engine.schedule t.eng ~delay:0 k) (List.rev ws)

(* --- diagnostics ----------------------------------------------------------- *)

let pp_line_state ppf = function
  | I -> Fmt.string ppf "I"
  | S -> Fmt.string ppf "S"
  | M -> Fmt.string ppf "M"

let pp_dir_state ppf = function
  | Uncached -> Fmt.string ppf "Uncached"
  | Shared s ->
      (* A literal separator, not [Fmt.comma]: its break hint splits the
         set across lines in a box-less [asprintf]. *)
      Fmt.pf ppf "Shared{%a}" Fmt.(list ~sep:(any ",") int) (Iset.elements s)
  | Exclusive p -> Fmt.pf ppf "Exclusive P%d" p

let render_event t e =
  let name line = t.names.(line) in
  match e with
  | Miss { proc; write; line; txid } ->
      Format.asprintf "P%d %s miss on %s -> txn %d" proc
        (if write then "write" else "read")
        (name line) txid
  | Deadline { txid; extension; next } ->
      Format.asprintf "txn %d deadline passed (extension %d, next in %d)" txid
        extension next
  | Deferred { line; owner } ->
      Format.asprintf "foreign request for %s deferred at P%d (reserved line)"
        (name line) owner
  | Nack { txid; line; busy_for } ->
      Format.asprintf "NACK txn %d (dir %s busy for %d)" txid (name line)
        busy_for
  | Gets { line; proc; state } ->
      Format.asprintf "dir %s: GetS from P%d (%a)" (name line) proc
        pp_dir_state state
  | Getx { line; proc; state } ->
      Format.asprintf "dir %s: GetX from P%d (%a)" (name line) proc
        pp_dir_state state
  | Invalidate { line; proc } ->
      Format.asprintf "invalidate %s at P%d" (name line) proc
  | Invalidate_owner { line; proc } ->
      Format.asprintf "invalidate owner %s at P%d" (name line) proc

(* Line ids in location-name order, the order the dump lists them in. *)
let by_name t =
  List.sort
    (fun a b -> String.compare t.names.(a) t.names.(b))
    (List.init (Array.length t.names) Fun.id)

let dump t =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let lines = by_name t in
  Fmt.pf ppf "=== protocol diagnostic dump (t=%d) ===@." (Engine.now t.eng);
  Fmt.pf ppf "directory:@.";
  List.iter
    (fun line ->
      let d = t.dir.(line) in
      if d.touched then
        Fmt.pf ppf "  %-8s %a mem=%d%s%s@." t.names.(line) pp_dir_state
          d.dstate d.mem
          (if d.busy then
             Printf.sprintf " BUSY(since=%d, for %d)" d.busy_since
               (Engine.now t.eng - d.busy_since)
           else "")
          (if Queue.is_empty d.waiting then ""
           else Printf.sprintf " queued=%d" (Queue.length d.waiting)))
    lines;
  Fmt.pf ppf "caches:@.";
  Array.iteri
    (fun p ps ->
      Fmt.pf ppf "  P%d: counter=%d deferred=%d zero-waiters=%d@." p ps.counter
        ps.deferred_n
        (List.length ps.zero_waiters);
      List.iter
        (fun line ->
          let l = ps.lines.(line) in
          if l.lstate <> I || l.reserved then
            Fmt.pf ppf "    %-8s %a=%d%s%s@." t.names.(line) pp_line_state
              l.lstate l.lvalue
              (if l.reserved then
                 Printf.sprintf " RESERVED{deps=%s}"
                   (String.concat ","
                      (List.map string_of_int (Iset.elements l.resv_deps)))
               else "")
              (match l.gp_waiters with
              | Some ws -> Printf.sprintf " gp-pending(%d)" (List.length ws)
              | None -> ""))
        lines)
    t.procs;
  let opened = Hashtbl.fold (fun _ tx acc -> tx :: acc) t.txns [] in
  Fmt.pf ppf "in-flight transactions (%d):@." (List.length opened);
  List.iter
    (fun tx ->
      Fmt.pf ppf "  txn %d: P%d %s %s, started=%d (age %d), nacks=%d, \
                  deadline extensions=%d@."
        tx.txid tx.tproc
        (if tx.twrite then "write" else "read")
        t.names.(tx.tline) tx.tstart
        (Engine.now t.eng - tx.tstart)
        tx.tnacks tx.textensions)
    (List.sort (fun a b -> compare a.txid b.txid) opened);
  Fmt.pf ppf "transport: %a@." Net.pp_stats (Net.stats t.net);
  (match Net.fault_counts t.net with
  | Some c -> Fmt.pf ppf "injected faults: %a@." Fault.pp_counts c
  | None -> ());
  Fmt.pf ppf "recent protocol events (oldest first):@.";
  let kept = min t.journal_n journal_cap in
  for k = t.journal_n - kept to t.journal_n - 1 do
    let i = k mod journal_cap in
    Fmt.pf ppf "  [%6d] %s@." t.journal_at.(i) (render_event t t.journal.(i))
  done;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* --- introspection (for the sanitizer) -------------------------------------- *)

let dir_state t line = t.dir.(line).dstate
let line_value t p line = (line_of t p line).lvalue
let memory_value t line = t.dir.(line).mem
let deferred_count t p = t.procs.(p).deferred_n

let open_txns t =
  Hashtbl.fold (fun _ tx acc -> (tx.txid, tx.tproc, tx.tline) :: acc) t.txns []

let line_quiescent t line =
  let d = t.dir.(line) in
  (not d.busy)
  && Queue.is_empty d.waiting
  && Net.line_quiescent t.net line
  && Array.for_all (fun ps -> ps.lines.(line).inflight = None) t.procs

(* --- transactions ------------------------------------------------------------ *)

let open_txn t ~proc ~line ~write =
  let txid = t.next_txid in
  t.next_txid <- txid + 1;
  let tx =
    {
      txid;
      tproc = proc;
      tline = line;
      twrite = write;
      tstart = Engine.now t.eng;
      topen = true;
      tnacks = 0;
      textensions = 0;
    }
  in
  Hashtbl.add t.txns txid tx;
  t.procs.(proc).open_txns <- Iset.add txid t.procs.(proc).open_txns;
  journal t (Miss { proc; write; line; txid });
  (* The end-to-end deadline: while the transport is still retrying the
     deadline extends with exponential backoff; a transaction that blows
     through every extension is wedged, and we say so loudly instead of
     spinning forever. *)
  let rec watch delay =
    Engine.schedule t.eng ~delay (fun () ->
        if tx.topen then begin
          t.stats.txn_timeouts <- t.stats.txn_timeouts + 1;
          tx.textensions <- tx.textensions + 1;
          journal t
            (Deadline
               { txid = tx.txid; extension = tx.textensions; next = delay * 2 });
          if tx.textensions > t.cfg.Sim_config.max_txn_extensions then
            raise
              (Stuck
                 (Printf.sprintf
                    "transaction %d (P%d %s %s) exceeded its deadline after \
                     %d extensions\n%s"
                    tx.txid tx.tproc
                    (if tx.twrite then "write" else "read")
                    t.names.(tx.tline) tx.textensions (dump t)))
          else watch (delay * 2)
        end)
  in
  watch t.cfg.Sim_config.txn_timeout;
  tx

(* Release the deferred foreign requests for [line] held at [proc]. *)
let release_deferred t proc line =
  let ps = t.procs.(proc) in
  let l = ps.lines.(line) in
  match l.deferred with
  | [] -> ()
  | ds ->
      l.deferred <- [];
      ps.deferred_n <- ps.deferred_n - List.length ds;
      List.iter (fun (_, k) -> Engine.schedule t.eng ~delay:0 k) (List.rev ds)

let close_txn t tx =
  tx.topen <- false;
  Hashtbl.remove t.txns tx.txid;
  let ps = t.procs.(tx.tproc) in
  ps.open_txns <- Iset.remove tx.txid ps.open_txns;
  Obs.span t.obs ~cat:"txn"
    ~name:(if tx.twrite then "GetX" else "GetS")
    ~tid:tx.tproc ~ts:tx.tstart
    ~dur:(Engine.now t.eng - tx.tstart)
    ~loc:t.names.(tx.tline) ~cause:(if tx.tnacks > 0 then cause_nack else "");
  (* Reservations placed while this access was outstanding may now have
     seen all their previous accesses globally performed: clear them (and
     service their stalled requests) as soon as that happens, rather than
     waiting for the full counter to read zero — mutual reservations
     between sync-heavy processors would otherwise never drain.  Only the
     registered reserved lines are visited, not the whole cache. *)
  if ps.reserved_lines <> [] then begin
    List.iter
      (fun (line, l) ->
        if l.reserved && Iset.mem tx.txid l.resv_deps then begin
          l.resv_deps <- Iset.remove tx.txid l.resv_deps;
          if Iset.is_empty l.resv_deps then begin
            l.reserved <- false;
            release_deferred t tx.tproc line
          end
        end)
      ps.reserved_lines;
    ps.reserved_lines <-
      List.filter (fun (_, l) -> l.reserved) ps.reserved_lines
  end

(* --- counter maintenance -------------------------------------------------- *)

let sample_counter t p =
  Obs.counter t.obs ~cat:"proto" ~name:"outstanding" ~tid:p
    ~ts:(Engine.now t.eng) ~value:t.procs.(p).counter

let incr_counter t p =
  t.procs.(p).counter <- t.procs.(p).counter + 1;
  sample_counter t p

let decr_counter t p =
  let ps = t.procs.(p) in
  if ps.counter <= 0 then
    raise
      (Stuck
         (Printf.sprintf "counter underflow at P%d\n%s" p (dump t)));
  ps.counter <- ps.counter - 1;
  sample_counter t p;
  if ps.counter = 0 then begin
    (* All reserve bits are reset when the counter reads zero... *)
    List.iter
      (fun (_, l) ->
        l.reserved <- false;
        l.resv_deps <- Iset.empty)
      ps.reserved_lines;
    ps.reserved_lines <- [];
    (* ...pending processor stalls resume... *)
    let ws = ps.zero_waiters in
    ps.zero_waiters <- [];
    List.iter (fun k -> Engine.schedule t.eng ~delay:0 k) ws;
    (* ...and the queue of stalled foreign requests is serviced, in
       arrival order across lines (the stamps). *)
    if ps.deferred_n > 0 then begin
      let ds =
        Array.fold_left
          (fun acc l ->
            match l.deferred with
            | [] -> acc
            | d ->
                l.deferred <- [];
                List.rev_append d acc)
          [] ps.lines
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      ps.deferred_n <- 0;
      List.iter (fun (_, k) -> Engine.schedule t.eng ~delay:0 k) ds
    end
  end

let when_counter_zero t p k =
  let ps = t.procs.(p) in
  if ps.counter = 0 then Engine.schedule t.eng ~delay:0 k
  else ps.zero_waiters <- k :: ps.zero_waiters

let reserve_if_outstanding t ~proc ~line =
  let ps = t.procs.(proc) in
  if ps.counter > 0 then begin
    let l = line_of t proc line in
    if not l.reserved then
      ps.reserved_lines <- ps.reserved_lines @ [ (line, l) ];
    l.reserved <- true;
    Obs.instant t.obs ~cat:"proto" ~name:"reserve" ~tid:proc
      ~ts:(Engine.now t.eng) ~loc:t.names.(line) ~cause:"";
    (* The accesses previous to this sync that are not yet globally
       performed: exactly the processor's open transactions right now
       (later accesses have not issued yet — threads are driven by
       continuations). *)
    l.resv_deps <- ps.open_txns
  end

(* Defer a foreign request for [line] at [owner] until the reservation
   clears (its previous accesses globally perform, or the counter reads
   zero). *)
let defer t owner line k =
  t.stats.deferrals <- t.stats.deferrals + 1;
  journal t (Deferred { line; owner });
  let ps = t.procs.(owner) in
  if ps.counter = 0 then Engine.schedule t.eng ~delay:0 k
  else begin
    let l = ps.lines.(line) in
    l.deferred <- (ps.defer_seq, k) :: l.deferred;
    ps.defer_seq <- ps.defer_seq + 1;
    ps.deferred_n <- ps.deferred_n + 1
  end

(* --- directory -------------------------------------------------------------- *)

let dir_next t line =
  let d = t.dir.(line) in
  match Queue.take_opt d.waiting with
  | None -> d.busy <- false
  | Some req ->
      d.busy <- true;
      d.busy_since <- Engine.now t.eng;
      Engine.schedule t.eng ~delay:t.cfg.Sim_config.dir_occupancy req

(* Admit a request to the per-line serialization queue — unless the line
   has been busy past the NACK threshold (a long stall, e.g. a reservation
   held under fault-delayed writes), in which case bounce it back: the
   requester retries with exponential backoff, and after [max_nacks]
   bounces it queues unconditionally, so nobody starves. *)
let rec dir_submit ?txn t line req =
  let d = t.dir.(line) in
  d.touched <- true;
  let stalled =
    d.busy && Engine.now t.eng - d.busy_since > t.cfg.Sim_config.nack_threshold
  in
  match txn with
  | Some tx when stalled && tx.tnacks < t.cfg.Sim_config.max_nacks ->
      tx.tnacks <- tx.tnacks + 1;
      t.stats.nacks <- t.stats.nacks + 1;
      journal t
        (Nack
           { txid = tx.txid; line; busy_for = Engine.now t.eng - d.busy_since });
      Obs.instant t.obs ~cat:"proto" ~name:"nack" ~tid:tx.tproc
        ~ts:(Engine.now t.eng) ~loc:t.names.(line) ~cause:cause_nack;
      let backoff =
        t.cfg.Sim_config.nack_backoff * (1 lsl (tx.tnacks - 1))
      in
      stall t ~proc:tx.tproc ~cause:Nack_retry ~line ~cycles:backoff;
      (* NACK message back to the requester, which waits out the backoff
         and re-sends the request. *)
      send t line (fun () ->
          Engine.schedule t.eng ~delay:backoff (fun () ->
              send t line (fun () -> dir_submit ?txn t line req)))
  | _ ->
      Queue.add req d.waiting;
      if not d.busy then dir_next t line

(* Service a GetS (read miss).  [deliver v] runs at the requester when the
   line arrives. *)
let rec dir_gets t ~proc ~line ~deliver =
  let d = t.dir.(line) in
  journal t (Gets { line; proc; state = d.dstate });
  match d.dstate with
  | Uncached | Shared _ ->
      let sharers =
        match d.dstate with Shared s -> s | Uncached | Exclusive _ -> Iset.empty
      in
      d.dstate <- Shared (Iset.add proc sharers);
      let v = d.mem in
      send t line (fun () -> deliver v);
      dir_next t line
  | Exclusive owner ->
      (* Forward to the owner; the owner downgrades, sends the line to the
         requester directly, and copies back to the directory. *)
      send t line (fun () ->
          owner_service t ~owner ~requester:proc ~line (fun () ->
              let l = line_of t owner line in
              l.lstate <- S;
              notify_line t owner line;
              let v = l.lvalue in
              send t line (fun () -> deliver v);
              send t line (fun () ->
                  d.mem <- v;
                  d.dstate <- Shared (Iset.of_list [ owner; proc ]);
                  dir_next t line)))

(* Service a GetX (write miss / upgrade).  [deliver v ~gp] runs at the
   requester with the line value; [gp] is true when the write is globally
   performed on arrival.  [on_gp] runs when the directory's ack arrives
   (only when [gp] was false). *)
and dir_getx t ~proc ~line ~deliver ~on_gp =
  let d = t.dir.(line) in
  journal t (Getx { line; proc; state = d.dstate });
  match d.dstate with
  | Uncached ->
      d.dstate <- Exclusive proc;
      let v = d.mem in
      send t line (fun () -> deliver v ~gp:true);
      dir_next t line
  | Shared sharers ->
      let others = Iset.remove proc sharers in
      d.dstate <- Exclusive proc;
      let v = d.mem in
      if Iset.is_empty others then begin
        send t line (fun () -> deliver v ~gp:true);
        dir_next t line
      end
      else begin
        (* Forward the line in parallel with the invalidations. *)
        send t line (fun () -> deliver v ~gp:false);
        let acks = ref (Iset.cardinal others) in
        Iset.iter
          (fun sh ->
            send t line (fun () ->
                t.stats.invalidations <- t.stats.invalidations + 1;
                let l = line_of t sh line in
                (* [Skip_invalidation] is the sanitizer's mutation: the
                   sharer acks without dropping its copy, silently breaking
                   single-writer.  [Forget_ack] applies the invalidation
                   but never acks, wedging the directory for the watchdog
                   to catch. *)
                (match t.cfg.Sim_config.mutation with
                | Sim_config.Skip_invalidation -> ()
                | Sim_config.No_mutation | Sim_config.Forget_ack ->
                    l.lstate <- I;
                    notify_line t sh line);
                journal t (Invalidate { line; proc = sh });
                if t.cfg.Sim_config.mutation <> Sim_config.Forget_ack then
                  (* ack back to the directory *)
                  send t line (fun () ->
                      decr acks;
                      if !acks = 0 then begin
                        send t line (fun () -> on_gp ());
                        dir_next t line
                      end)))
          others
      end
  | Exclusive owner when owner = proc ->
      (* Stale request: the requester already owns the line (can happen if
         it re-requested during in-flight state changes; not expected with
         per-line inflight tracking, but handled for robustness). *)
      let v = d.mem in
      send t line (fun () -> deliver v ~gp:true);
      dir_next t line
  | Exclusive owner ->
      send t line (fun () ->
          owner_service t ~owner ~requester:proc ~line (fun () ->
              t.stats.invalidations <- t.stats.invalidations + 1;
              let l = line_of t owner line in
              l.lstate <- I;
              notify_line t owner line;
              let v = l.lvalue in
              journal t (Invalidate_owner { line; proc = owner });
              send t line (fun () -> deliver v ~gp:false);
              (* Owner acks the directory, which acks the writer. *)
              send t line (fun () ->
                  d.mem <- v;
                  d.dstate <- Exclusive proc;
                  send t line (fun () -> on_gp ());
                  dir_next t line)))

(* Run [k] at [owner] now, or defer it if the line is reserved (Section
   5.3: a reserved line is never given up before the counter reads zero).
   [requester] is the processor whose miss is being serviced: the cycles
   spent deferred are *its* stall, shifted there by condition 5, and are
   attributed to it — this is exactly the wait the paper's Definition-2
   hardware moves off the synchronizing processor. *)
and owner_service t ~owner ~requester ~line k =
  let l = line_of t owner line in
  if l.reserved then begin
    Obs.instant t.obs ~cat:"proto" ~name:"defer" ~tid:owner
      ~ts:(Engine.now t.eng) ~loc:t.names.(line) ~cause:cause_reserve;
    let t0 = Engine.now t.eng in
    defer t owner line (fun () ->
        stall t ~proc:requester ~cause:Reserve_bit ~line
          ~cycles:(Engine.now t.eng - t0);
        k ())
  end
  else k ()

(* --- processor-facing API --------------------------------------------------- *)

(* Serialize accesses of one processor to one in-flight line. *)
let with_line_free t p line k =
  let l = line_of t p line in
  match l.inflight with
  | Some ks -> l.inflight <- Some (k :: ks)
  | None -> k ()

let release_inflight t l =
  match l.inflight with
  | None -> ()
  | Some ks ->
      l.inflight <- None;
      List.iter (fun k -> Engine.schedule t.eng ~delay:0 k) (List.rev ks)

let read ?(on_gp = fun () -> ()) t ~proc ~line ~k =
  with_line_free t proc line (fun () ->
      let l = line_of t proc line in
      match l.lstate with
      | S | M ->
          after_hit t (fun () ->
              k l.lvalue;
              (* Reading one's own dirty, not-yet-performed write: the read
                 is globally performed only when the write is. *)
              when_line_gp t l on_gp)
      | I ->
          l.inflight <- Some [];
          incr_counter t proc;
          let tx = open_txn t ~proc ~line ~write:false in
          send t line (fun () ->
              dir_submit ~txn:tx t line (fun () ->
                  dir_gets t ~proc ~line ~deliver:(fun v ->
                      l.lstate <- S;
                      l.lvalue <- v;
                      close_txn t tx;
                      decr_counter t proc;
                      release_inflight t l;
                      k v;
                      (* A line served by the directory or a previous owner
                         only carries globally performed writes (directory
                         transactions are serialized per line). *)
                      on_gp ()))))

let modify ?(on_gp = fun () -> ()) t ~proc ~line ~f ~on_commit =
  with_line_free t proc line (fun () ->
      let l = line_of t proc line in
      match l.lstate with
      | M ->
          let old = l.lvalue in
          l.lvalue <- f old;
          after_hit t (fun () ->
              on_commit old;
              (* No other cache holds the line, but stale copies may still
                 await invalidation from the transaction that procured it:
                 this write is globally performed when that one is. *)
              when_line_gp t l on_gp)
      | S | I ->
          l.inflight <- Some [];
          incr_counter t proc;
          let tx = open_txn t ~proc ~line ~write:true in
          send t line (fun () ->
              dir_submit ~txn:tx t line (fun () ->
                  dir_getx t ~proc ~line
                    ~deliver:(fun v ~gp ->
                      l.lstate <- M;
                      let old = v in
                      l.lvalue <- f old;
                      if gp then begin
                        (* Globally performed on arrival: the access leaves
                           the outstanding count *before* the processor
                           continues, so a sync commit sees only genuinely
                           previous accesses in the counter.  (Counting the
                           op itself would let two processors reserve their
                           own sync lines against each other and deadlock —
                           e.g. dekker with sync reads under Def2.) *)
                        close_txn t tx;
                        decr_counter t proc;
                        release_inflight t l;
                        on_commit old;
                        on_gp ()
                      end
                      else begin
                        l.gp_waiters <- Some [];
                        release_inflight t l;
                        on_commit old
                      end)
                    ~on_gp:(fun () ->
                      close_txn t tx;
                      decr_counter t proc;
                      on_gp ();
                      resolve_line_gp t l))))

let line_state t p line = (line_of t p line).lstate
let line_reserved t p line = (line_of t p line).reserved
let line_gp_pending t p line = (line_of t p line).gp_waiters <> None

(* The coherent value of a location at quiescence: the owner's copy if the
   line is exclusive somewhere, the directory's otherwise. *)
let settled_value t line =
  let d = t.dir.(line) in
  match d.dstate with
  | Exclusive owner -> (line_of t owner line).lvalue
  | Uncached | Shared _ -> d.mem
