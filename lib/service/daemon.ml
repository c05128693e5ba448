(* The long-lived verification daemon behind [weakord serve]: the
   daemon's request grammar (tickets, SUBMIT/STATUS/RESULT WAIT/CANCEL)
   over the supervisor kernel and the batch's verdict policy.

   Fairness: each client's connection owns a kernel queue of its
   pending tickets and dispatch round-robins across owners, so a client
   that dumps 10^4 jobs cannot starve one submitting a single program.
   Tickets restored from a checkpoint belong to a synthetic "orphan"
   owner that takes its turn like any other.

   The cache is shared across all clients (exact key first, then the
   orbit-canonical symmetry key), so client B's job completes instantly
   when client A already paid for the verdict — the amortization the
   one-shot batch could never get across invocations.

   Shutdown is the kernel's drain (SIGTERM/SIGINT or a DRAIN request),
   plus: admission stops, and blocked RESULT WAITs are answered.  The
   kernel's periodic checkpoint means even SIGKILL loses at most a
   quarter second of queue state — completed verdicts are never lost,
   they are already in the cache and the JSONL log. *)

type cfg = {
  socket : string;
  out : string option;
  workers : int;
  timeout_s : float;
  retries : int;
  backoff_ms : int;
  cache : Verdict_cache.t;
  checkpoint : string option;
  resume : string option;
  model : Worker.model;
  machine : string;
  fuel : int option;
  spill_dir : string option;
  mem_budget : int option;
  max_clients : int;
  log : string -> unit;
  verbose : bool;
}

let default_cfg =
  {
    socket = "weakord.sock";
    out = None;
    workers = 4;
    timeout_s = 10.;
    retries = 3;
    backoff_ms = 100;
    cache = Verdict_cache.in_memory ();
    checkpoint = None;
    resume = None;
    model = Worker.Drf0;
    machine = "def2";
    fuel = None;
    spill_dir = None;
    mem_budget = None;
    max_clients = 64;
    log = ignore;
    verbose = false;
  }

type summary = {
  submitted : int;
  completed : int;
  violations : int;
  quarantined : int;
  cancelled : int;
  pending : int;
  served_from_cache : int;
  sym_dedup : int;
  states_total : int;
  clients_total : int;
  cache : Verdict_cache.stats;
  suspended : bool;
  wall_s : float;
}

exception Startup_error of string

let exit_code s = if s.suspended then 3 else 0

(* --- checkpoint -------------------------------------------------------------- *)

module S = Supervisor

let ckpt_kind = "weakord.daemon"

type ckpt = {
  c_model : string;
  c_next_ticket : int;
  c_pending : (int * Job.t * int) list;  (* ticket, job, failed attempts *)
}

(* --- the server -------------------------------------------------------------- *)

let orphan_client = -1

let run cfg =
  if cfg.workers < 1 then invalid_arg "Daemon.run: workers must be >= 1";
  if cfg.retries < 1 then invalid_arg "Daemon.run: retries must be >= 1";
  let model_name = Worker.model_name cfg.model in
  (* Tickets are kernel units owned by their client's connection id;
     [records] holds each finished ticket's final line (a finished
     ticket without one was cancelled). *)
  let tickets : (int, Batch.job S.work) Hashtbl.t = Hashtbl.create 256 in
  let records : (int, string) Hashtbl.t = Hashtbl.create 256 in
  let cancel_requested : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let waiters : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let next_ticket = ref 0 in
  let cancelled = ref 0 in
  let tally = Batch.tally () in
  (* Resume: restore unfinished tickets as orphans. *)
  let orphans =
    match cfg.resume with
    | None -> []
    | Some path ->
        let (ck : ckpt), recovered =
          match S.load_snapshot ~kind:ckpt_kind path with
          | Ok v -> v
          | Error e -> raise (Startup_error e)
        in
        if not (String.equal ck.c_model model_name) then
          raise
            (Startup_error
               (Printf.sprintf
                  "checkpoint was taken under model %s, this daemon uses %s"
                  ck.c_model model_name));
        next_ticket := ck.c_next_ticket;
        cfg.log
          (Printf.sprintf "resumed %d orphan ticket(s) from %s%s"
             (List.length ck.c_pending) path
             (if recovered then " (recovered from the last-good .prev generation)"
              else ""));
        List.map
          (fun (_, job, attempts) ->
            Batch.job_work ~attempts ~owner:orphan_client ~model:cfg.model job)
          ck.c_pending
  in
  let first_ticket = !next_ticket in
  let listen_fd =
    match S.bind cfg.socket with Ok fd -> fd | Error e -> raise (Startup_error e)
  in
  let t =
    S.create
      (Batch.job_cfg ~workers:cfg.workers ~retries:cfg.retries
         ~backoff_ms:cfg.backoff_ms ~timeout_s:cfg.timeout_s ~resident:true
         ~out:(match cfg.out with None -> S.Discard | Some p -> S.Append p)
         ~listen:(Some (listen_fd, cfg.socket))
         ~max_clients:cfg.max_clients ~log:cfg.log ~verbose:cfg.verbose)
  in
  let add w =
    Hashtbl.replace tickets w.S.id w;
    S.enqueue t w
  in
  List.iter add orphans;
  let phase_string w =
    match w.S.state with
    | S.Waiting -> "queued"
    | S.Backoff -> "backoff"
    | S.Running -> "running"
    | S.Finished -> if Hashtbl.mem records w.S.id then "done" else "cancelled"
  in
  (* Every waiter gets the record, the cancellation, or — once drained —
     word that the ticket will not finish in this process. *)
  let notify_waiters w =
    Option.iter
      (List.iter (fun cid ->
           Option.iter
             (fun c ->
               S.send c
                 (match (w.S.state, Hashtbl.find_opt records w.S.id) with
                 | _, Some r -> Wire.ok r
                 | S.Finished, None -> Wire.err Wire.e_gone "job was cancelled"
                 | _ -> Wire.err Wire.e_draining "server drained"))
             (S.conn t cid)))
      (Hashtbl.find_opt waiters w.S.id);
    Hashtbl.remove waiters w.S.id
  in
  let settled w _ record =
    Hashtbl.replace records w.S.id record;
    notify_waiters w;
    match S.conn t w.S.owner with
    | Some c -> c.S.c_completed <- c.S.c_completed + 1
    | None -> ()
  in
  let cancel_done w =
    w.S.state <- S.Finished;
    incr cancelled;
    notify_waiters w
  in
  let parked w =
    if Hashtbl.mem cancel_requested w.S.id then cancel_done w else S.enqueue t w
  in
  let attempt =
    Runner.attempt ~model:cfg.model ?fuel:cfg.fuel ?spill_dir:cfg.spill_dir
      ?mem_budget:cfg.mem_budget
  in
  let start, on_exit =
    Batch.verdicts t ~cache:cfg.cache ~attempt tally ~settled ~parked
  in
  let stats () =
    let per_client =
      List.map
        (fun c ->
          Printf.sprintf "{\"client\":%d,\"submitted\":%d,\"completed\":%d}"
            c.S.c_id c.S.c_submitted c.S.c_completed)
        (S.conns t)
      |> List.sort compare
    in
    let wall = S.uptime t in
    let cs = Verdict_cache.stats cfg.cache in
    let qg = S.queue_gauge t and wg = S.running_gauge t in
    Printf.sprintf
      "{\"clients\":%d,\"clients_total\":%d,\"queue_depth\":%d,\"running\":%d,\"submitted\":%d,\"completed\":%d,\"violations\":%d,\"quarantined\":%d,\"cancelled\":%d,\"served_from_cache\":%d,\"sym_dedup\":%d,\"cache_hits\":%d,\"cache_misses\":%d,\"cache_entries\":%d,\"states_total\":%d,\"states_per_sec\":%.1f,\"queue_depth_max\":%d,\"queue_depth_mean\":%.1f,\"workers_max\":%d,\"workers_mean\":%.1f,\"uptime_s\":%.1f,\"draining\":%b,\"per_client\":[%s]}"
      (List.length per_client) (S.clients_total t) (S.queue_depth t)
      (S.running_count t) (!next_ticket - first_ticket) tally.completed tally.violations
      tally.quarantined !cancelled tally.served_from_cache tally.sym_dedup
      cs.Verdict_cache.hits cs.Verdict_cache.misses cs.Verdict_cache.entries
      tally.states
      (if wall > 0. then float_of_int tally.states /. wall else 0.)
      (Obs.Gauge.max_level qg) (Obs.Gauge.mean qg) (Obs.Gauge.max_level wg)
      (Obs.Gauge.mean wg) wall (S.draining t)
      (String.concat "," per_client)
  in
  let submit c jobline =
    if S.draining t then S.send c (Wire.err Wire.e_draining "server is draining")
    else
      match Job.parse_string ~default_machine:cfg.machine jobline with
      | Error e -> S.send c (Wire.err Wire.e_bad e)
      | Ok [] -> S.send c (Wire.err Wire.e_bad "job line expands to no jobs")
      | Ok jobs ->
          let first = !next_ticket in
          List.iter
            (fun j ->
              let id = !next_ticket in
              incr next_ticket;
              c.S.c_submitted <- c.S.c_submitted + 1;
              add (Batch.job_work ~owner:c.S.c_id ~model:cfg.model { j with Job.id }))
            jobs;
          let last = !next_ticket - 1 in
          if first = last then S.send c (Wire.ok (Printf.sprintf "ticket=%d" first))
          else S.send c (Wire.ok (Printf.sprintf "tickets=%d-%d" first last))
  in
  let with_ticket c id f =
    match Hashtbl.find_opt tickets id with
    | None -> S.send c (Wire.err Wire.e_unknown (Printf.sprintf "no ticket %d" id))
    | Some w -> f w
  in
  let request c = function
    | Wire.Submit jobline -> submit c jobline
    | Wire.Status id ->
        with_ticket c id (fun w ->
            S.send c (Wire.ok (Printf.sprintf "%d %s" id (phase_string w))))
    | Wire.Result { ticket = id; wait } ->
        with_ticket c id (fun w ->
            match (w.S.state, Hashtbl.find_opt records id) with
            | S.Finished, Some r -> S.send c (Wire.ok r)
            | S.Finished, None -> S.send c (Wire.err Wire.e_gone "job was cancelled")
            | _ ->
                if wait then
                  Hashtbl.replace waiters id
                    (c.S.c_id :: Option.value ~default:[] (Hashtbl.find_opt waiters id))
                else
                  S.send c
                    (Wire.err Wire.e_conflict
                       (Printf.sprintf "ticket %d is %s; use RESULT %d WAIT" id
                          (phase_string w) id)))
    | Wire.Cancel id ->
        with_ticket c id (fun w ->
            match w.S.state with
            | S.Finished ->
                S.send c
                  (Wire.err Wire.e_conflict
                     (Printf.sprintf "ticket %d already %s" id (phase_string w)))
            | S.Waiting | S.Backoff ->
                S.withdraw t w;
                cancel_done w;
                S.send c (Wire.ok (Printf.sprintf "%d cancelled" id))
            | S.Running ->
                Hashtbl.replace cancel_requested id ();
                S.withdraw t w;
                S.send c (Wire.ok (Printf.sprintf "%d cancelling" id)))
    | _ -> ()
  in
  let stop () =
    Hashtbl.fold (fun id _ acc -> Hashtbl.find tickets id :: acc) waiters []
    |> List.iter notify_waiters
  in
  let save path () =
    let pending =
      List.sort compare
        (List.map
           (fun w -> (w.S.id, w.S.payload.Batch.job, w.S.attempts))
           (S.pending t))
    in
    S.save_snapshot ~kind:ckpt_kind
      ~meta:(Printf.sprintf "%d pending ticket(s)" (List.length pending))
      path
      { c_model = model_name; c_next_ticket = !next_ticket; c_pending = pending }
  in
  cfg.log
    (Printf.sprintf "serving on %s (model %s, %d worker(s))" cfg.socket
       model_name cfg.workers);
  S.run t ?save:(Option.map save cfg.checkpoint) ~stats ~request ~stop ~start
    ~on_exit ();
  let pending = S.pending_count t in
  {
    submitted = !next_ticket - first_ticket;
    completed = tally.completed;
    violations = tally.violations;
    quarantined = tally.quarantined;
    cancelled = !cancelled;
    pending;
    served_from_cache = tally.served_from_cache;
    sym_dedup = tally.sym_dedup;
    states_total = tally.states;
    clients_total = S.clients_total t;
    cache = Verdict_cache.stats cfg.cache;
    suspended = pending > 0;
    wall_s = S.uptime t;
  }

let pp_summary ppf s =
  let c = s.cache in
  Format.fprintf ppf
    "daemon: %d job(s) submitted by %d client(s): %d finished (%d \
     violation(s), %d quarantined, %d cancelled, %d pending), %d served from \
     cache (%d via symmetry)@\n\
     cache: %d hit(s), %d miss(es), %d appended, %d entrie(s)@\n\
     %d state(s) expanded, wall %.1fs, %.0f states/s%s"
    s.submitted s.clients_total s.completed s.violations s.quarantined
    s.cancelled s.pending s.served_from_cache s.sym_dedup c.Verdict_cache.hits
    c.Verdict_cache.misses c.Verdict_cache.appended c.Verdict_cache.entries
    s.states_total s.wall_s
    (if s.wall_s > 0. then float_of_int s.states_total /. s.wall_s else 0.)
    (if s.suspended then " — SUSPENDED (resume with --resume)" else "")
