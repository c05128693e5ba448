(* The batch front end: the supervisor kernel fed from a job file.

   The verdict policy lives here too, shared with the daemon: a unit is
   one job, answered from the verdict cache (exact key, then symmetry
   key) when it can be, else by a forked worker; a worker that exits 0
   with a valid result file gives the verdict, any other failure
   retries, and a job whose attempts run out is quarantined with the
   worker's stderr tail (exit code 4, not a crash).  The batch adds the
   deadline, the resume checkpoint and the summary. *)

type cfg = {
  out : string option;
  workers : int;
  timeout_s : float;
  retries : int;
  backoff_ms : int;
  cache : Verdict_cache.t;
  checkpoint : string option;
  resume : string option;
  deadline_s : float option;
  model : Worker.model;
  fuel : int option;
  spill_dir : string option;
  mem_budget : int option;
  log : string -> unit;
  verbose : bool;
}

let default_cfg =
  {
    out = None;
    workers = 4;
    timeout_s = 10.;
    retries = 3;
    backoff_ms = 100;
    cache = Verdict_cache.in_memory ();
    checkpoint = None;
    resume = None;
    deadline_s = None;
    model = Worker.Drf0;
    fuel = None;
    spill_dir = None;
    mem_budget = None;
    log = ignore;
    verbose = false;
  }

type summary = {
  total : int;
  completed : int;
  ok : int;
  violations : int;
  quarantined_total : int;
  pending : int;
  served_from_cache : int;
  sym_dedup : int;
  cache : Verdict_cache.stats;
  suspended : bool;
  wall_s : float;
}

exception Resume_rejected of string

let exit_code s =
  if s.suspended then 3
  else if s.violations > 0 then 1
  else if s.quarantined_total > 0 then 4
  else 0

(* --- the verdict policy, shared with the daemon ------------------------------- *)

module S = Supervisor

type job = { job : Job.t; mat : Runner.mat }

type tally = {
  mutable completed : int;
  mutable violations : int;
  mutable quarantined : int;
  mutable served_from_cache : int;
  mutable sym_dedup : int;
  mutable states : int;
}

let tally () =
  {
    completed = 0;
    violations = 0;
    quarantined = 0;
    served_from_cache = 0;
    sym_dedup = 0;
    states = 0;
  }

let job_work ?attempts ~owner ~model (j : Job.t) =
  S.work ?attempts ~id:j.Job.id ~owner { job = j; mat = Runner.materialize ~model j }

let job_cfg ~workers ~retries ~backoff_ms ~timeout_s ~resident ~out ~listen
    ~max_clients ~log ~verbose =
  {
    S.noun = "worker";
    item = "job";
    label = (fun j -> Job.label j.job);
    slots = workers;
    retries;
    backoff_ms;
    timeout_s;
    heartbeat = false;
    resident;
    out;
    listen;
    max_clients;
    log;
    verbose;
  }

let verdicts t ~cache ~attempt tally ~settled ~parked =
  let { S.timeout_s; retries; log; verbose; _ } = S.cfg t in
  let settle w v record =
    S.finish t w [ record ];
    settled w v record
  in
  let verdict w v ~cached ~ms =
    (match w.S.payload.mat.Runner.m_prog with
    | Some (_, key, skey) ->
        Verdict_cache.add cache key v;
        Verdict_cache.add cache skey v
    | None -> ());
    tally.completed <- tally.completed + 1;
    if v.Verdict_cache.v_violation then tally.violations <- tally.violations + 1;
    if cached then tally.served_from_cache <- tally.served_from_cache + 1
    else tally.states <- tally.states + v.Verdict_cache.v_states;
    settle w (Some v)
      (Runner.verdict_record w.S.payload.job v ~cached ~attempts:(w.S.attempts + 1) ~ms)
  in
  let quarantine w ~ms =
    tally.quarantined <- tally.quarantined + 1;
    log
      (Printf.sprintf "QUARANTINED %s after %d attempt(s): %s"
         (Job.label w.S.payload.job) w.S.attempts w.S.reason);
    settle w None
      (Runner.quarantine_record w.S.payload.job ~reason:w.S.reason
         ~stderr:w.S.stderr_tail ~attempts:w.S.attempts ~ms)
  in
  let fail w reason ~ms = if not (S.retry t w reason) then quarantine w ~ms in
  let spawn w =
    S.spawn t w (fun files cancelled ->
        attempt ~cancelled ~result_path:files.S.result w.S.payload.job w.S.payload.mat)
  in
  let start w =
    match w.S.payload.mat with
    | { Runner.m_error = Some e; _ } ->
        (* Unreproducible source: retrying cannot help. *)
        w.S.reason <- "unusable job: " ^ e;
        w.S.attempts <- retries;
        quarantine w ~ms:0.
    | { Runner.m_prog = Some (_, key, skey); _ } -> (
        match Verdict_cache.find cache key with
        | Some v -> verdict w v ~cached:true ~ms:0.
        | None -> (
            (* Exact text never verified — but a renaming of it may have
               been: the symmetry key answers with the class
               representative's verdict. *)
            match Verdict_cache.find cache skey with
            | Some v ->
                tally.sym_dedup <- tally.sym_dedup + 1;
                verdict w v ~cached:true ~ms:0.
            | None -> spawn w))
    | _ -> (* wedge: never cached *) spawn w
  in
  let on_exit w e ~ms =
    match e with
    | S.Exit_ok -> (
        match Runner.read_result w.S.files.S.result with
        | Some v -> verdict w v ~cached:false ~ms
        | None -> fail w "worker exited 0 but left no valid result file" ~ms)
    | S.Exit_parked ->
        if verbose then
          log (Printf.sprintf "%s cancelled at a safe point" (Job.label w.S.payload.job));
        parked w
    | S.Exit_failed reason -> fail w reason ~ms
    | S.Exit_hung -> fail w (Printf.sprintf "timeout: SIGKILL after %.1fs" timeout_s) ~ms
  in
  (start, on_exit)

(* --- checkpoint -------------------------------------------------------------- *)

let ckpt_kind = "weakord.batch2"

type ckpt = {
  c_fingerprint : string;
  c_model : string;
  c_pending : (int * int) list;  (** unfinished jobs: id, failed attempts *)
  c_completed : int;
  c_violations : int;
  c_quarantined : int;
}

(* --- the batch front end ------------------------------------------------------ *)

let run cfg jobs =
  if cfg.workers < 1 then invalid_arg "Batch.run: workers must be >= 1";
  if cfg.retries < 1 then invalid_arg "Batch.run: retries must be >= 1";
  let t0 = Unix.gettimeofday () in
  let fingerprint = Job.fingerprint jobs in
  let model_name = Worker.model_name cfg.model in
  let tally = tally () in
  (* Resume: only the checkpoint's pending jobs run, with their attempt
     counters, after validating that it matches this job list and
     model; prior tallies fold in so exit codes reflect the whole batch. *)
  let attempts_of =
    match cfg.resume with
    | None -> fun _ -> Some 0
    | Some path ->
        let (ck : ckpt), recovered =
          match S.load_snapshot ~kind:ckpt_kind path with
          | Ok v -> v
          | Error e -> raise (Resume_rejected e)
        in
        if not (String.equal ck.c_fingerprint fingerprint) then
          raise
            (Resume_rejected
               "checkpoint was taken over a different job list (fingerprints \
                differ)");
        if not (String.equal ck.c_model model_name) then
          raise
            (Resume_rejected
               (Printf.sprintf
                  "checkpoint was taken under model %s, this run uses %s"
                  ck.c_model model_name));
        cfg.log
          (Printf.sprintf "resuming batch: %d/%d job(s) already finished%s"
             (List.length jobs - List.length ck.c_pending)
             (List.length jobs)
             (if recovered then
                " (recovered from the last-good .prev generation)"
              else ""));
        tally.completed <- ck.c_completed;
        tally.violations <- ck.c_violations;
        tally.quarantined <- ck.c_quarantined;
        Hashtbl.find_opt (Hashtbl.of_seq (List.to_seq ck.c_pending))
  in
  let works =
    List.filter_map
      (fun j ->
        Option.map
          (fun attempts -> job_work ~attempts ~owner:(-1) ~model:cfg.model j)
          (attempts_of j.Job.id))
      jobs
  in
  let t =
    S.create
      (job_cfg ~workers:cfg.workers ~retries:cfg.retries
         ~backoff_ms:cfg.backoff_ms ~timeout_s:cfg.timeout_s ~resident:false
         ~out:(match cfg.out with None -> S.Stdout | Some p -> S.Append p)
         ~listen:None ~max_clients:0 ~log:cfg.log ~verbose:cfg.verbose)
  in
  List.iter (S.enqueue t) works;
  let settled w v _ =
    match v with
    | Some v when v.Verdict_cache.v_violation ->
        cfg.log
          (Printf.sprintf "VIOLATION %s: %d outcome(s) beyond SC under %s"
             (Job.label w.S.payload.job)
             (List.length v.Verdict_cache.v_outcomes)
             model_name)
    | _ -> ()
  in
  let attempt =
    Runner.attempt ~model:cfg.model ?fuel:cfg.fuel ?spill_dir:cfg.spill_dir
      ?mem_budget:cfg.mem_budget
  in
  let start, on_exit =
    verdicts t ~cache:cfg.cache ~attempt tally ~settled ~parked:(S.enqueue t)
  in
  let save path () =
    let pending = List.map (fun w -> (w.S.id, w.S.attempts)) (S.pending t) in
    S.save_snapshot ~kind:ckpt_kind
      ~meta:
        (Printf.sprintf "%d pending, %d quarantined" (List.length pending)
           tally.quarantined)
      path
      {
        c_fingerprint = fingerprint;
        c_model = model_name;
        c_pending = pending;
        c_completed = tally.completed;
        c_violations = tally.violations;
        c_quarantined = tally.quarantined;
      }
  in
  let should_drain () =
    match cfg.deadline_s with
    | Some d when Unix.gettimeofday () > t0 +. d ->
        Some "batch deadline reached; draining"
    | _ -> None
  in
  S.run t ~should_drain ?save:(Option.map save cfg.checkpoint) ~start ~on_exit ();
  let pending = S.pending_count t in
  {
    total = List.length jobs;
    completed = tally.completed;
    ok = tally.completed - tally.violations;
    violations = tally.violations;
    quarantined_total = tally.quarantined;
    pending;
    served_from_cache = tally.served_from_cache;
    sym_dedup = tally.sym_dedup;
    cache = Verdict_cache.stats cfg.cache;
    suspended = S.draining t && pending > 0;
    wall_s = Unix.gettimeofday () -. t0;
  }

let pp_summary ppf s =
  let c = s.cache in
  Format.fprintf ppf
    "batch: %d job(s): %d finished (%d ok, %d violation(s), %d quarantined, \
     %d pending), %d served from cache (%d via symmetry, %.0f%%)@\n\
     cache: %d hit(s), %d miss(es), %d corrupt record(s) skipped, %d \
     appended, %d entrie(s)@\n\
     wall %.1fs, %.1f job(s)/s%s"
    s.total s.completed s.ok s.violations s.quarantined_total s.pending
    s.served_from_cache s.sym_dedup
    (if s.completed > 0 then
       100. *. float_of_int s.sym_dedup /. float_of_int s.completed
     else 0.)
    c.Verdict_cache.hits c.Verdict_cache.misses
    c.Verdict_cache.corrupt_skipped c.Verdict_cache.appended
    c.Verdict_cache.entries s.wall_s
    (if s.wall_s > 0. then float_of_int s.completed /. s.wall_s else 0.)
    (if s.suspended then " — SUSPENDED (resume with --resume)" else "")
