(* The sharded fuzz fleet: the supervisor kernel fed from a seed range,
   over the three-way differential oracle in [Fuzz].  A unit is a seed
   range; its shard streams the seeds through [Fuzz.check_prog],
   heartbeats the seed it is about to check (the kernel's watchdog
   reads it), and ships its accumulated tallies back in a CRC-framed
   result file.

   The failure matrix:

     exit 0 + valid result, next > hi  -> unit done (emit its records)
     exit 9 + valid result             -> drained at a seed boundary:
                                          merge the partial, requeue
     heartbeat stale > hang_timeout_s  -> SIGKILL + bisect: seeds before
                                          the suspect keep the progress,
                                          seeds after become fresh work,
                                          the suspect retries alone
     any other death                   -> failed attempt: requeue whole
                                          (a transient kill must not
                                          split units, or resumed and
                                          uninterrupted campaigns would
                                          emit different records)
     suspect attempts exhausted        -> poison: quarantine dossier
                                          with a ddmin-minimized
                                          reproducer; campaign continues

   Records are emitted only when a unit finalizes, so drained partials
   never double-emit; the volatile [cached/attempts/ms] trailer comes
   from [Runner.record_trailer], so one regex strips timing from fleet,
   batch and daemon streams alike. *)

type cfg = {
  oracle : Fuzz.cfg;
  shards : int;
  unit_seeds : int;
  hang_timeout_s : float;
  retries : int;
  backoff_ms : int;
  out : string option;
  checkpoint : string option;
  resume : string option;
  deadline_s : float option;
  mem_budget : int option;
  wedge_seeds : int list;
  stats_socket : string option;
  log : string -> unit;
  verbose : bool;
}

let default_cfg =
  {
    oracle = Fuzz.default_cfg;
    shards = 4;
    unit_seeds = 256;
    hang_timeout_s = 30.;
    retries = 3;
    backoff_ms = 100;
    out = None;
    checkpoint = None;
    resume = None;
    deadline_s = None;
    mem_budget = None;
    wedge_seeds = [];
    stats_socket = None;
    log = ignore;
    verbose = false;
  }

type poison = {
  p_seed : int;
  p_reason : string;
  p_attempts : int;
  p_report : string option;
}

type summary = {
  f_units_total : int;
  f_units_done : int;
  f_units_requeued : int;
  f_units_split : int;
  f_pending : int;
  f_programs : int;
  f_checks : int;
  f_disagreements : int;
  f_sim_runs : int;
  f_sim_wedged : int;
  f_sim_skipped : int;
  f_states : int;
  f_poison : poison list;
  f_poison_total : int;
  f_wall_s : float;
  f_suspended : bool;
}

exception Resume_rejected of string

let exit_code s =
  if s.f_suspended then 3
  else if s.f_disagreements > 0 then 1
  else if s.f_poison_total > 0 then 4
  else 0

(* --- the unit plan ----------------------------------------------------------- *)

let units_of_range ~lo ~hi ~unit_seeds =
  if lo > hi then invalid_arg "Fleet.units_of_range: empty seed range";
  if unit_seeds < 1 then
    invalid_arg "Fleet.units_of_range: unit_seeds must be >= 1";
  let rec go a acc =
    if a > hi then List.rev acc
    else
      let b = min hi (a + unit_seeds - 1) in
      go (b + 1) ((a, b) :: acc)
  in
  go lo []

(* The injected-hang rule.  The >= 2 guard makes the rule a usable
   ddmin predicate: the shrinker can remove instructions down to a
   two-instruction reproducer but never to an empty program. *)
let wedge_fires ~wedge_seeds ~seed prog =
  List.mem seed wedge_seeds && Prog.num_instrs prog >= 2

(* --- accumulated tallies ------------------------------------------------------ *)

(* What a shard ships back: [Fuzz.seed_report] sums plus each
   disagreement tagged with its seed.  Merged exactly once per seed
   across the campaign — on failed attempts no result file exists, and
   the deterministic oracle recomputes identical tallies on retry. *)
type acc = {
  a_programs : int;
  a_checks : int;
  a_disagreements : (int * string * string) list;  (* seed, check, detail *)
  a_sim_runs : int;
  a_sim_wedged : int;
  a_sim_skipped : int;
  a_states : int;
}

let acc_zero =
  {
    a_programs = 0;
    a_checks = 0;
    a_disagreements = [];
    a_sim_runs = 0;
    a_sim_wedged = 0;
    a_sim_skipped = 0;
    a_states = 0;
  }

let acc_add a ~seed (r : Fuzz.seed_report) =
  {
    a_programs = a.a_programs + 1;
    a_checks = a.a_checks + r.Fuzz.sr_checks;
    a_disagreements =
      a.a_disagreements
      @ List.map (fun (c, d) -> (seed, c, d)) r.Fuzz.sr_disagreements;
    a_sim_runs = a.a_sim_runs + r.Fuzz.sr_sim_runs;
    a_sim_wedged = a.a_sim_wedged + r.Fuzz.sr_sim_wedged;
    a_sim_skipped = a.a_sim_skipped + r.Fuzz.sr_sim_skipped;
    a_states = a.a_states + r.Fuzz.sr_states;
  }

let acc_union a b =
  {
    a_programs = a.a_programs + b.a_programs;
    a_checks = a.a_checks + b.a_checks;
    a_disagreements = a.a_disagreements @ b.a_disagreements;
    a_sim_runs = a.a_sim_runs + b.a_sim_runs;
    a_sim_wedged = a.a_sim_wedged + b.a_sim_wedged;
    a_sim_skipped = a.a_sim_skipped + b.a_sim_skipped;
    a_states = a.a_states + b.a_states;
  }

(* A unit's payload: its seed range, the first unchecked seed, and the
   merged tallies for the seeds below it. *)
type span = { lo : int; hi : int; mutable frontier : int; mutable acc : acc }

let ukey u = Printf.sprintf "%d..%d" u.lo u.hi

(* --- the shard worker --------------------------------------------------------- *)

let unit_kind = "weakord.fleet.unit"

(* The oracle a shard actually runs: no quarantine writes, no shrinking,
   no logging, no deadline — all campaign policy stays in the parent. *)
let probe_oracle oracle =
  {
    oracle with
    Fuzz.quarantine = None;
    shrink = false;
    progress = 0;
    log = ignore;
    deadline_s = None;
  }

(* Runs in the child.  Heartbeat first, then check: the parent reads a
   stale heartbeat as "wedged on exactly this seed".  A wedge seed spins
   forever and ignores SIGTERM — a faithful model of a real engine hang,
   which only the watchdog's SIGKILL resolves. *)
let shard_body ~oracle ~wedge_seeds ~key ~frontier ~hi files cancelled =
  let probe = probe_oracle oracle in
  let acc = ref acc_zero in
  let ship next code =
    Runner.write_framed ~kind:unit_kind ~meta:key files.Supervisor.result
      ((!acc, next) : acc * int);
    Unix._exit code
  in
  let seed = ref frontier in
  while !seed <= hi do
    if cancelled () then ship !seed 9;
    Atomic_io.write_file ~fsync:false files.Supervisor.heartbeat (string_of_int !seed);
    let prog = Litmus_gen.generate ~config:probe.Fuzz.config !seed in
    if wedge_fires ~wedge_seeds ~seed:!seed prog then
      while true do
        try Unix.sleepf 0.05 with Unix.Unix_error _ -> ()
      done
    else begin
      let r = Fuzz.check_prog probe prog in
      acc := acc_add !acc ~seed:!seed r;
      incr seed
    end
  done;
  ship (hi + 1) 0

let read_unit_result path : (acc * int) option =
  Runner.read_framed ~kind:unit_kind path

(* --- checkpoint --------------------------------------------------------------- *)

let ckpt_kind = "weakord.fleet2"

(* The campaign's cumulative counters; a checkpoint carries them, so a
   resume folds the prior runs in. *)
type campaign = {
  mutable units_total : int;
  mutable units_done : int;
  mutable units_requeued : int;
  mutable units_split : int;
  mutable total : acc;  (** every merged seed's tallies *)
  mutable poison : poison list;
}

type ckpt = {
  k_fingerprint : string;
  k_pending : (span * int) list;  (* with failed attempts *)
  k_campaign : campaign;
}

(* The campaign identity a checkpoint must match before resuming.
   Deliberately excludes the shard count — an interrupted 4-shard
   campaign may resume on 8 shards; only the work and the oracle must
   agree. *)
let fingerprint cfg ~lo ~hi =
  let o = cfg.oracle in
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            string_of_int lo;
            string_of_int hi;
            string_of_int cfg.unit_seeds;
            Format.asprintf "%a" Litmus_gen.pp_config o.Fuzz.config;
            String.concat "," (List.map Machines.name o.Fuzz.machines);
            string_of_bool o.Fuzz.sim;
            string_of_int o.Fuzz.sim_limit;
            String.concat "," (List.map string_of_int cfg.wedge_seeds);
          ]))

(* --- JSONL records ------------------------------------------------------------ *)

(* Stable fields first, [Runner.record_trailer] last — the same
   strip-one-regex contract as batch/daemon records.  Poison reasons
   must carry no timings, so resumed and uninterrupted campaigns render
   byte-identical records modulo the trailer. *)

let unit_record ~key ~gen a ~attempts ~ms =
  Printf.sprintf
    "{\"unit\":\"%s\",\"status\":\"done\",\"programs\":%d,\"checks\":%d,\"disagreements\":%d,\"sim_runs\":%d,\"sim_wedged\":%d,\"sim_skipped\":%d,\"states\":%d,\"gen\":\"%s\"%s"
    key a.a_programs a.a_checks
    (List.length a.a_disagreements)
    a.a_sim_runs a.a_sim_wedged a.a_sim_skipped a.a_states
    (Runner.json_escape gen)
    (Runner.record_trailer ~cached:false ~attempts ~ms)

let disagreement_record ~key ~seed ~check ~detail ~ms =
  Printf.sprintf
    "{\"unit\":\"%s\",\"status\":\"disagreement\",\"seed\":%d,\"check\":\"%s\",\"detail\":\"%s\"%s"
    key seed (Runner.json_escape check) (Runner.json_escape detail)
    (Runner.record_trailer ~cached:false ~attempts:1 ~ms)

let poison_record ~key ~seed ~reason ~attempts ~ms =
  Printf.sprintf "{\"unit\":\"%s\",\"status\":\"poison\",\"seed\":%d,\"reason\":\"%s\"%s"
    key seed (Runner.json_escape reason)
    (Runner.record_trailer ~cached:false ~attempts ~ms)

let hang_reason = "wedged: heartbeat stalled past the hang budget"

(* --- hang reproduction probe -------------------------------------------------- *)

(* Does [prog] wedge the oracle?  Fork it with a timeout: a child that
   neither completes nor exits cleanly within the hang budget is killed
   and counted as hanging.  Used as the ddmin predicate for organically
   poisoned seeds (injected wedge seeds use the pure [wedge_fires] rule
   instead — no forking, full shrink budget). *)
let hangs_in_fork ~oracle ~hang_timeout_s prog =
  let probe = probe_oracle oracle in
  let pid =
    Runner.fork_worker (fun () ->
        Runner.redirect_stderr "/dev/null";
        (* The hang budget is the child's own alarm: SIGALRM kills it. *)
        Sys.set_signal Sys.sigalrm Sys.Signal_default;
        ignore
          (Unix.setitimer Unix.ITIMER_REAL
             { Unix.it_interval = 0.; it_value = hang_timeout_s });
        ignore (Fuzz.check_prog probe prog : Fuzz.seed_report);
        Unix._exit 0)
  in
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status <> Unix.WEXITED 0
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* --- the supervisor ----------------------------------------------------------- *)

module S = Supervisor

let heap_bytes () =
  let s = Gc.quick_stat () in
  s.Gc.heap_words * (Sys.word_size / 8)

let run cfg ~lo ~hi =
  if lo > hi then invalid_arg "Fleet.run: empty seed range";
  if cfg.shards < 1 then invalid_arg "Fleet.run: shards must be >= 1";
  if cfg.unit_seeds < 1 then invalid_arg "Fleet.run: unit_seeds must be >= 1";
  if cfg.retries < 1 then invalid_arg "Fleet.run: retries must be >= 1";
  let t0 = Unix.gettimeofday () in
  let fp = fingerprint cfg ~lo ~hi in
  let span ?(attempts = 0) ?(acc = acc_zero) ?frontier lo hi =
    let frontier = Option.value frontier ~default:lo in
    S.work ~attempts ~id:lo ~owner:(-1) { lo; hi; frontier; acc }
  in
  let ck =
    match cfg.resume with
    | None ->
        let plan = units_of_range ~lo ~hi ~unit_seeds:cfg.unit_seeds in
        {
          k_fingerprint = fp;
          k_pending =
            List.map (fun (a, b) -> ({ lo = a; hi = b; frontier = a; acc = acc_zero }, 0)) plan;
          k_campaign =
            {
              units_total = List.length plan;
              units_done = 0;
              units_requeued = 0;
              units_split = 0;
              total = acc_zero;
              poison = [];
            };
        }
    | Some path ->
        let (ck : ckpt), recovered =
          match S.load_snapshot ~kind:ckpt_kind path with
          | Ok v -> v
          | Error e -> raise (Resume_rejected e)
        in
        if not (String.equal ck.k_fingerprint fp) then
          raise
            (Resume_rejected
               "checkpoint was taken over a different campaign (fingerprints \
                differ)");
        cfg.log
          (Printf.sprintf
             "resuming fleet: %d unit(s) pending, %d/%d seed(s) already \
              checked%s"
             (List.length ck.k_pending) ck.k_campaign.total.a_programs
             (hi - lo + 1)
             (if recovered then
                " (recovered from the last-good .prev generation)"
              else ""));
        { ck with k_pending = List.sort compare ck.k_pending }
  in
  let c = ck.k_campaign in
  let prior_poison = List.length c.poison in
  let run_base_programs = c.total.a_programs in
  let listen =
    Option.map
      (fun path ->
        match S.bind path with
        | Ok fd -> (fd, path)
        | Error e -> invalid_arg ("Fleet.run: cannot bind stats socket: " ^ e))
      cfg.stats_socket
  in
  let t =
    S.create
      {
        S.noun = "shard";
        item = "unit";
        label = (fun u -> Printf.sprintf "unit %s at seed %d" (ukey u) u.frontier);
        slots = cfg.shards;
        retries = cfg.retries;
        backoff_ms = cfg.backoff_ms;
        timeout_s = cfg.hang_timeout_s;
        heartbeat = true;
        resident = false;
        out = (match cfg.out with None -> S.Stdout | Some p -> S.Append p);
        listen;
        max_clients = max_int;
        log = cfg.log;
        verbose = cfg.verbose;
      }
  in
  List.iter
    (fun (u, attempts) -> S.enqueue t (S.work ~attempts ~id:u.lo ~owner:(-1) u))
    ck.k_pending;
  let budget =
    Budget.create ?deadline_s:cfg.deadline_s ?mem_bytes:cfg.mem_budget ()
  in
  let save path () =
    let pending = S.pending t in
    S.save_snapshot ~kind:ckpt_kind
      ~meta:
        (Printf.sprintf "%d pending unit(s), %d poison" (List.length pending)
           (List.length c.poison))
      path
      {
        k_fingerprint = fp;
        k_pending = List.map (fun w -> (w.S.payload, w.S.attempts)) pending;
        k_campaign = c;
      }
  in
  let gen = Litmus_gen.config_args cfg.oracle.Fuzz.config in
  (* Global counters update at merge time — exactly once per seed across
     the campaign (failed attempts leave no result file; the oracle is
     deterministic, so a retry recomputes identical tallies). *)
  let merge u (a : acc) next =
    c.total <- acc_union c.total a;
    u.acc <- acc_union u.acc a;
    u.frontier <- next
  in
  (* A dossier: minimize against [pred], then write the standard fuzz
     quarantine files. *)
  let dossier seed ~check ~detail ~pred ~max_tests =
    let oracle = cfg.oracle in
    match oracle.Fuzz.quarantine with
    | None -> None
    | Some _ ->
        let prog = Litmus_gen.generate ~config:oracle.Fuzz.config seed in
        let minimal =
          if not oracle.Fuzz.shrink then None
          else
            match Shrink.ddmin ~max_tests ~pred prog with
            | m, _ -> Some m
            | exception Invalid_argument _ -> None
        in
        Fuzz.quarantine_seed ?minimal oracle ~seed ~prog ~check ~detail
  in
  (* A poison seed shrinks against the pure wedge rule when injected,
     and against a forked timeout probe for organic hangs (bounded —
     every hanging candidate costs a whole hang budget). *)
  let poison_dossier seed ~reason =
    let pred, max_tests =
      if List.mem seed cfg.wedge_seeds then
        (wedge_fires ~wedge_seeds:cfg.wedge_seeds ~seed, 2000)
      else (hangs_in_fork ~oracle:cfg.oracle ~hang_timeout_s:cfg.hang_timeout_s, 40)
    in
    dossier seed ~check:"fleet-hang" ~detail:reason ~pred ~max_tests
  in
  let finalize w ~ms =
    let u = w.S.payload in
    c.units_done <- c.units_done + 1;
    let key = ukey u in
    let disagreements =
      List.map
        (fun (seed, check, detail) ->
          let q =
            dossier seed ~check ~detail ~max_tests:2000
              ~pred:(Fuzz.still_fails cfg.oracle ~check)
          in
          cfg.log
            (Printf.sprintf "DISAGREEMENT seed %d [%s]: %s%s" seed check detail
               (match q with
               | Some p -> " (quarantined: " ^ p ^ ")"
               | None -> ""));
          disagreement_record ~key ~seed ~check ~detail ~ms)
        (List.sort compare u.acc.a_disagreements)
    in
    S.finish t w
      (disagreements
      @ [ unit_record ~key ~gen u.acc ~attempts:(w.S.attempts + 1) ~ms ]);
    if cfg.verbose then
      cfg.log
        (Printf.sprintf "unit %s done: %d program(s), %d check(s)" key
           u.acc.a_programs u.acc.a_checks)
  in
  let poison w ~reason ~ms =
    let seed = w.S.payload.lo in
    let report = poison_dossier seed ~reason in
    c.poison <-
      c.poison
      @ [ { p_seed = seed; p_reason = reason; p_attempts = w.S.attempts; p_report = report } ];
    cfg.log
      (Printf.sprintf "POISON seed %d after %d attempt(s): %s%s" seed
         w.S.attempts reason
         (match report with
         | Some r -> " (dossier: " ^ r ^ ")"
         | None -> ""));
    S.finish t w
      [ poison_record ~key:(ukey w.S.payload) ~seed ~reason ~attempts:w.S.attempts ~ms ]
  in
  (* Hang bisection.  The suspect seed (from the stale heartbeat) is cut
     out into its own single-seed unit carrying the hang strike; seeds
     before it keep the unit's merged progress, seeds after become fresh
     work.  [suspect_attempts] is the strike count the suspect inherits:
     hang strikes accumulate, a crash-exhausted split grants a fresh
     budget. *)
  let bisect w ~suspect_attempts ~ms =
    let u = w.S.payload in
    let suspect =
      match int_of_string_opt w.S.beat with
      | Some s when s >= u.frontier && s <= u.hi -> s
      | _ -> u.frontier
    in
    c.units_split <- c.units_split + 1;
    cfg.log
      (Printf.sprintf
         "HANG unit %s: shard wedged on seed %d (heartbeat stale past %.1fs); \
          bisecting"
         (ukey u) suspect cfg.hang_timeout_s);
    if suspect > u.lo then begin
      let left = span ~acc:u.acc ~frontier:u.frontier u.lo (suspect - 1) in
      c.units_total <- c.units_total + 1;
      if u.frontier > suspect - 1 then finalize left ~ms else S.enqueue t left
    end;
    if suspect < u.hi then begin
      c.units_total <- c.units_total + 1;
      S.enqueue t (span (suspect + 1) u.hi)
    end;
    let su = span ~attempts:suspect_attempts suspect suspect in
    c.units_total <- c.units_total + 1;
    if suspect_attempts >= cfg.retries then poison su ~reason:hang_reason ~ms
    else ignore (S.delay t su : int)
  in
  let fail w reason ~ms =
    if S.retry t w reason then c.units_requeued <- c.units_requeued + 1
    else if w.S.payload.lo = w.S.payload.hi then poison w ~reason ~ms
      else
        (* Retries exhausted without a hang verdict: isolate the seed the
           shard last heartbeat on, granting the suspect a fresh retry
           budget (the deaths may have been transient). *)
        bisect w ~suspect_attempts:0 ~ms
  in
  let start w =
    let u = w.S.payload in
    if u.frontier > u.hi then finalize w ~ms:0.
    else
      S.spawn t w
        (shard_body ~oracle:cfg.oracle ~wedge_seeds:cfg.wedge_seeds ~key:(ukey u)
           ~frontier:u.frontier ~hi:u.hi)
  in
  let on_exit w e ~ms =
    let u = w.S.payload in
    match e with
    | S.Exit_ok -> (
        match read_unit_result w.S.files.S.result with
        | Some (a, next) when next > u.hi ->
            merge u a next;
            finalize w ~ms
        | Some _ -> fail w "shard exited 0 before finishing its unit" ~ms
        | None -> fail w "shard exited 0 but left no valid result file" ~ms)
    | S.Exit_parked ->
        (* Drained at a seed boundary: merge the partial frontier and
           keep the unit pending — it lands in the checkpoint. *)
        Option.iter (fun (a, next) -> merge u a next)
          (read_unit_result w.S.files.S.result);
        if cfg.verbose then
          cfg.log (Printf.sprintf "unit %s drained at seed %d" (ukey u) u.frontier);
        if u.frontier > u.hi then finalize w ~ms else S.enqueue t w
    | S.Exit_failed reason -> fail w reason ~ms
    | S.Exit_hung -> bisect w ~suspect_attempts:(w.S.attempts + 1) ~ms
  in
  let stats () =
    let wall = Unix.gettimeofday () -. t0 in
    let sg = S.running_gauge t in
    Printf.sprintf
      "{\"shards\":%d,\"shards_max\":%d,\"shards_mean\":%.1f,\"queue_depth\":%d,\"units_total\":%d,\"units_done\":%d,\"units_pending\":%d,\"units_requeued\":%d,\"units_split\":%d,\"poison\":%d,\"disagreements\":%d,\"seeds_done\":%d,\"seeds_total\":%d,\"seeds_per_sec\":%.1f,\"states_total\":%d,\"uptime_s\":%.1f,\"draining\":%b}"
      (S.running_count t) (Obs.Gauge.max_level sg) (Obs.Gauge.mean sg)
      (S.queue_depth t) c.units_total c.units_done (S.pending_count t)
      c.units_requeued c.units_split (List.length c.poison)
      (List.length c.total.a_disagreements)
      c.total.a_programs (hi - lo + 1)
      (if wall > 0. then
         float_of_int (c.total.a_programs - run_base_programs) /. wall
       else 0.)
      c.total.a_states wall (S.draining t)
  in
  (* Budget exhaustion is a self-inflicted drain. *)
  let should_drain () =
    if Budget.over_deadline budget then Some "fleet deadline reached; draining"
    else if Budget.over_memory budget ~bytes:(heap_bytes ()) then
      Some "fleet memory budget reached; draining"
    else None
  in
  S.run t ~should_drain ?save:(Option.map save cfg.checkpoint) ~stats ~start
    ~on_exit ();
  let pending = S.pending_count t in
  {
    f_units_total = c.units_total;
    f_units_done = c.units_done;
    f_units_requeued = c.units_requeued;
    f_units_split = c.units_split;
    f_pending = pending;
    f_programs = c.total.a_programs;
    f_checks = c.total.a_checks;
    f_disagreements = List.length c.total.a_disagreements;
    f_sim_runs = c.total.a_sim_runs;
    f_sim_wedged = c.total.a_sim_wedged;
    f_sim_skipped = c.total.a_sim_skipped;
    f_states = c.total.a_states;
    f_poison = List.filteri (fun i _ -> i >= prior_poison) c.poison;
    f_poison_total = List.length c.poison;
    f_wall_s = Unix.gettimeofday () -. t0;
    f_suspended = S.draining t && pending > 0;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "fleet: %d unit(s): %d done, %d pending, %d requeue(s), %d hang \
     bisection(s)@\n\
     corpus: %d program(s), %d oracle check(s), %d disagreement(s)@\n\
     sim: %d run(s), %d legal wedge(s) on blocking programs, %d skipped@\n\
     poison: %d seed(s) quarantined%s@\n\
     %d state(s) expanded, wall %.1fs, %.1f seed(s)/s%s"
    s.f_units_total s.f_units_done s.f_pending s.f_units_requeued
    s.f_units_split s.f_programs s.f_checks s.f_disagreements s.f_sim_runs
    s.f_sim_wedged s.f_sim_skipped s.f_poison_total
    (match s.f_poison with
    | [] -> ""
    | ps ->
        Printf.sprintf " (this run: %s)"
          (String.concat ", " (List.map (fun p -> string_of_int p.p_seed) ps)))
    s.f_states s.f_wall_s
    (if s.f_wall_s > 0. then float_of_int s.f_programs /. s.f_wall_s else 0.)
    (if s.f_suspended then " — SUSPENDED (resume with --resume)" else "")
