(* The benchmark's per-layer probe.

   Each subcommand calls the public functions of the layers one workload
   exercises, in this process, and times every call.  With --chrome FILE
   the calls are also recorded as spans (microsecond timestamps) in an
   Obs ring and exported as Chrome trace_event JSON, together with the
   bytes the calling domain allocated during each call.  The last line of
   standard output is one JSON object mapping each metric to
   [value, sample count].

     probe verify   --seconds S [--chrome F] --spill-dir D
     probe sim      --seconds S [--chrome F]
     probe serve    --seconds S [--chrome F] --jobs FILE --cache FILE
     probe verdicts --jobs FILE
     probe fleet    --seconds S [--chrome F] --lo N --hi N --hang SECS
     probe calibrate (host speed: a fixed stdlib-only kernel)
     probe env      (recommended domain count and OCaml version)

   Every subcommand except verdicts alternates untraced and traced
   passes until S seconds are spent; trace.overhead_pct compares the
   two. *)

(* --- arguments ---------------------------------------------------------- *)

let args = Array.to_list Sys.argv |> List.tl

let flag name =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let flag_req name =
  match flag name with
  | Some v -> v
  | None -> failwith ("missing " ^ name)

let seconds () = float_of_string (flag_req "--seconds")

(* --- spans -------------------------------------------------------------- *)

let obs = ref Obs.null
let epoch = Unix.gettimeofday ()
let tracing () = Obs.enabled !obs

(* [timed ~name f] runs [f ()] and returns its value, its wall time in ms
   and the MB the calling domain allocated meanwhile (0 when not tracing).
   The span name is stored by reference, so callers pass literals. *)
let timed ~name f =
  let on = tracing () in
  let a0 = if on then Gc.allocated_bytes () else 0. in
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let t1 = Unix.gettimeofday () in
  let mb = if on then (Gc.allocated_bytes () -. a0) /. 1048576. else 0. in
  if on then
    Obs.span !obs ~cat:"layer" ~name ~tid:0
      ~ts:(int_of_float ((t0 -. epoch) *. 1e6))
      ~dur:(int_of_float ((t1 -. t0) *. 1e6))
      ~loc:"" ~cause:"";
  (v, (t1 -. t0) *. 1000., mb)

(* --- small statistics --------------------------------------------------- *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (k - 1)))

let maximum xs = List.fold_left max 0. xs
let sum xs = List.fold_left ( +. ) 0. xs
let share part whole = if whole > 0. then part /. whole else 0.

(* --- output ------------------------------------------------------------- *)

(* [(name, value, samples)] *)
let print_metrics kvs =
  let field (k, v, n) = Printf.sprintf "%S: [%.17g, %d]" k v n in
  print_endline ("{" ^ String.concat ", " (List.map field kvs) ^ "}")

(* A figure taken from the median of [xs], with its sample count. *)
let med name xs = (name, median xs, List.length xs)

(* A figure taken from the last pass only. *)
let last name v = (name, v, 1)

(* Alternate untraced and traced passes until the budget is spent (at
   least one of each), so both see the same heap and machine load.
   [pass ()] returns its own wall time in ms.  Every pass feeds the
   caller's layer figures; only the spans depend on tracing. *)
let alternate ~seconds pass =
  let deadline = Unix.gettimeofday () +. seconds in
  let ring =
    match flag "--chrome" with
    | Some _ -> Obs.create ~capacity:(1 lsl 16) ()
    | None -> Obs.null
  in
  let plain = ref [] and traced = ref [] in
  let step () =
    obs := Obs.null;
    plain := pass () :: !plain;
    obs := ring;
    traced := pass () :: !traced
  in
  step ();
  while Unix.gettimeofday () < deadline do
    step ()
  done;
  obs := Obs.null;
  (match flag "--chrome" with
  | Some path -> Obs.Chrome.write_file path ring
  | None -> ());
  let u = median !plain and t = median !traced in
  let n = List.length !plain + List.length !traced in
  [ ("trace.overhead_pct", 100. *. (t -. u) /. u, n) ]

(* --- verify-big4 -------------------------------------------------------- *)

let builtin name =
  match Litmus_classics.find name with
  | Some e -> e.Litmus_classics.prog
  | None -> failwith ("no builtin " ^ name)

let verify () =
  let prog = builtin "big4" in
  let domains = Domain.recommended_domain_count () in
  let spill_dir = flag_req "--spill-dir" in
  let drf_ms = ref [] and drf_mb = ref [] in
  let so_ms = ref [] and so_n = ref 0 in
  let sc_states = ref 0 and ex_mb = ref [] in
  let ex_states = ref 0 and sym_hits = ref 0 and suppressed = ref 0 in
  let def2_ms = ref [] and spill_ms = ref [] in
  let spill_runs = ref 0 and spill_keys = ref 0 in
  let nosym_ms = ref [] and nosym_states = ref 0 and sym_states = ref 0 in
  (* Per pass: DRF, exploration and SC ms summed over the three legs. *)
  let d_pass = ref [] and e_pass = ref [] and s_pass = ref [] in
  let totals = ref (0., 0., 0.) in
  let legs = ref 0 and bad_legs = ref 0 in
  let explore ?(sym = true) ?spill machine =
    let rcfg =
      match spill with
      | None -> { Explore.rcfg_default with sym }
      | Some dir ->
          {
            Explore.rcfg_default with
            sym;
            spill_dir = Some dir;
            budget = Some (Budget.create ~mem_bytes:2_000_000 ());
          }
    in
    Machines.explore ~domains ~rcfg machine prog
  in
  (* One leg = what [weakord verify] does for one program: the model
     check, the machine's state space, the SC reference. *)
  let leg machine ?spill () =
    let obeys, d_ms, d_mb =
      timed ~name:"drf.obeys" (fun () -> Drf.obeys ~model:Drf.DRF0 prog)
    in
    let r, e_ms, e_mb =
      match spill with
      | None -> timed ~name:"explore" (fun () -> explore machine)
      | Some dir -> timed ~name:"explore.spill" (fun () -> explore ~spill:dir machine)
    in
    let (sc_set, n), s_ms, _ = timed ~name:"sc" (fun () -> Sc.explore prog) in
    let st = r.Explore.stats in
    (* The big4 verdict [weakord verify big4 -v] prints on def2 and ooo:
       obeys=false appears-SC=false, so the machine is weakly ordered
       w.r.t. DRF0 on it.  Every leg must reach it exhaustively. *)
    let outs = Explore.bounded_value r.Explore.result in
    incr legs;
    if obeys || Final.Set.subset outs sc_set
       || not (Explore.is_complete r.Explore.result)
    then incr bad_legs;
    drf_ms := d_ms :: !drf_ms;
    if tracing () then begin
      drf_mb := d_mb :: !drf_mb;
      ex_mb := e_mb :: !ex_mb
    end;
    sc_states := n;
    let a, b, c = !totals in
    totals := (a +. d_ms, b +. e_ms, c +. s_ms);
    (st, e_ms)
  in
  let pass () =
    let t0 = Unix.gettimeofday () in
    totals := (0., 0., 0.);
    let st2, ms2 = leg Machines.def2 () in
    let sto, _ = leg Machines.ooo () in
    let sts, mss = leg Machines.def2 ~spill:spill_dir () in
    let d, e, s = !totals in
    d_pass := d :: !d_pass;
    e_pass := e :: !e_pass;
    s_pass := s :: !s_pass;
    ex_states := st2.Explore.states_expanded + sto.Explore.states_expanded
                 + sts.Explore.states_expanded;
    sym_hits := st2.Explore.sym_hits + sto.Explore.sym_hits + sts.Explore.sym_hits;
    suppressed :=
      st2.Explore.suppressed + sto.Explore.suppressed + sts.Explore.suppressed;
    def2_ms := ms2 :: !def2_ms;
    spill_ms := mss :: !spill_ms;
    spill_runs := sts.Explore.spilled_runs;
    spill_keys := sts.Explore.spilled_keys;
    (* Symmetry's effect: the same def2 sweep with the reduction off. *)
    let r, n_ms, _ =
      timed ~name:"explore.nosym" (fun () -> explore ~sym:false Machines.def2)
    in
    nosym_ms := n_ms :: !nosym_ms;
    nosym_states := r.Explore.stats.Explore.states_expanded;
    sym_states := st2.Explore.states_expanded;
    let orders, o_ms, _ =
      timed ~name:"drf.sync_orders" (fun () -> Sync_orders.feasible prog)
    in
    so_ms := o_ms :: !so_ms;
    so_n := List.length orders;
    (Unix.gettimeofday () -. t0) *. 1000.
  in
  let overhead = alternate ~seconds:(seconds ()) pass in
  (* The shares split the median pass: DRF, exploration and SC medians. *)
  let passes = List.length !e_pass in
  let d = median !d_pass and e = median !e_pass and s = median !s_pass in
  let whole = d +. e +. s in
  let n = float_of_int in
  print_metrics
    ([
       med "drf.obeys_ms" !drf_ms;
       med "drf.sync_orders_ms" !so_ms;
       last "drf.sync_orders" (n !so_n);
       ("drf.share", share d whole, passes);
       med "drf.alloc_mb" !drf_mb;
       ("explore.ms", e, passes);
       last "explore.states" (n !ex_states);
       ("explore.ns_per_state", share (e *. 1e6) (n !ex_states), passes);
       last "explore.sym_hits" (n !sym_hits);
       last "explore.suppressed" (n !suppressed);
       ("explore.share", share e whole, passes);
       med "explore.alloc_mb" !ex_mb;
       last "sym.states_saved" (n (!nosym_states - !sym_states));
       ("sym.ms_saved", median !nosym_ms -. median !def2_ms, passes);
       ( "sym.saved_share",
         share (median !nosym_ms -. median !def2_ms) (median !nosym_ms),
         passes );
       ("sc.ms", s, passes);
       last "sc.states" (n !sc_states);
       ("sc.share", share s whole, passes);
       last "spill.runs" (n !spill_runs);
       last "spill.keys" (n !spill_keys);
       ("spill.extra_ms", median !spill_ms -. median !def2_ms, passes);
       ( "spill.extra_share",
         share (median !spill_ms -. median !def2_ms) (median !def2_ms),
         passes );
       last "check.legs" (n !legs);
       last "check.bad_legs" (n !bad_legs);
     ]
    @ overhead)

(* --- sim-64 ------------------------------------------------------------- *)

let sim_legs =
  [
    ("locks", Cpu.Def1); ("locks", Cpu.Def2_rs);
    ("ticket", Cpu.Def1); ("ticket", Cpu.Def2_rs);
  ]

let workload name nprocs =
  match name with
  | "locks" -> Workload.critical_sections ~nprocs ()
  | "ticket" -> Workload.ticket_lock ~nprocs ()
  | _ -> failwith name

let sim () =
  let host_ms = ref [] and counts = ref [] and san = ref [] in
  let san_cycles = ref 0 in
  let run ~name ~sanitize w p n =
    let cfg = Sim_config.make ~sanitize () in
    timed ~name (fun () -> Sim_run.run ~cfg p (workload w n))
  in
  let pass () =
    let t0 = Unix.gettimeofday () in
    let rs =
      List.map (fun (w, p) -> run ~name:"sim.leg64" ~sanitize:false w p 64) sim_legs
    in
    host_ms := sum (List.map (fun (_, ms, _) -> ms) rs) :: !host_ms;
    counts := List.map (fun (r, _, _) -> r) rs;
    let on, on_ms, _ = run ~name:"sim.sanitized32" ~sanitize:true "locks" Cpu.Def2_rs 32 in
    let _, off_ms, _ = run ~name:"sim.unsanitized32" ~sanitize:false "locks" Cpu.Def2_rs 32 in
    san := (on.Sim_run.sanitizer_checks, on_ms, off_ms) :: !san;
    san_cycles := on.Sim_run.total_cycles;
    (Unix.gettimeofday () -. t0) *. 1000.
  in
  let overhead = alternate ~seconds:(seconds ()) pass in
  let rs = !counts in
  let total f = float_of_int (List.fold_left (fun a r -> a + f r) 0 rs) in
  let stall f =
    total (fun r ->
        Array.fold_left (fun a s -> a + f s) 0 r.Sim_run.proc_stats)
  in
  (* Counts and cycles are exact, so the last pass stands for all. *)
  let events = total (fun r -> r.Sim_run.events) in
  let checks = match !san with (c, _, _) :: _ -> c | [] -> 0 in
  let on_ms = median (List.map (fun (_, a, _) -> a) !san)
  and off_ms = median (List.map (fun (_, _, b) -> b) !san) in
  print_metrics
    ([
       last "engine.events" events;
       ("sim.ns_per_event", share (median !host_ms *. 1e6) events, List.length !host_ms);
       last "proto.messages" (total (fun r -> r.Sim_run.messages));
       last "proto.invalidations" (total (fun r -> r.Sim_run.invalidations));
       last "proto.nacks" (total (fun r -> r.Sim_run.nacks));
       last "proto.deferrals" (total (fun r -> r.Sim_run.deferrals));
       last "cpu.stall_cycles.counter" (stall (fun s -> s.Cpu.stall_pre_sync));
       last "cpu.stall_cycles.gp" (stall (fun s -> s.Cpu.stall_sync_gp));
       last "cpu.stall_cycles.acquire" (stall (fun s -> s.Cpu.stall_acquire));
       last "cpu.stall_cycles.read" (stall (fun s -> s.Cpu.stall_read));
       last "sanitizer.checks" (float_of_int checks);
       ("sanitizer.share", share (on_ms -. off_ms) on_ms, List.length !san);
     ]
    @ List.map2
        (fun (w, p) r ->
          last
            (Printf.sprintf "cycles.%s.%s.64" w (Cpu.policy_name p))
            (float_of_int r.Sim_run.total_cycles))
        sim_legs rs
    @ [ last "cycles.locks.def2-rs.32" (float_of_int !san_cycles) ]
    @ overhead)

(* --- serve-mix ---------------------------------------------------------- *)

let read_jobs () =
  let ic = open_in (flag_req "--jobs") in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let parse_job line =
  match Job.parse_string line with
  | Ok [ j ] -> j
  | Ok _ -> failwith ("not exactly one job: " ^ line)
  | Error e -> failwith e

let machine_of j =
  match Machines.find j.Job.machine with
  | Some m -> m
  | None -> failwith j.Job.machine

(* The verdict a daemon worker computes for [line], rendered as the
   daemon renders it.  The caller strips the ticket and the volatile
   trailer before comparing. *)
let verdicts () =
  List.iter
    (fun line ->
      let j = parse_job line in
      let m = Runner.materialize ~model:Worker.Drf0 j in
      let record =
        match m.Runner.m_prog with
        | None -> "error"
        | Some (prog, _, _) -> (
            match Worker.run ~model:Worker.Drf0 ~machine:(machine_of j) prog with
            | Ok v -> Runner.verdict_record j v ~cached:false ~attempts:1 ~ms:0.
            | Error `Cancelled -> "cancelled")
      in
      Printf.printf "%s\t%s\n" line record)
    (read_jobs ())

let serve () =
  let jobs = Array.of_list (List.map parse_job (read_jobs ())) in
  let cache = Verdict_cache.open_file (flag_req "--cache") in
  let mat_ms = ref [] and fork_ms = ref [] and work_ms = ref [] in
  let find_us = ref [] and add_us = ref [] in
  let i = ref 0 in
  (* One pass = one job through the daemon's per-job layers, in order:
     materialize, cache probe, fork+reap, worker, cache append. *)
  let pass () =
    let t0 = Unix.gettimeofday () in
    let j = jobs.(!i mod Array.length jobs) in
    incr i;
    let m, ms, _ = timed ~name:"runner.materialize" (fun () ->
        Runner.materialize ~model:Worker.Drf0 j) in
    mat_ms := ms :: !mat_ms;
    (match m.Runner.m_prog with
    | None -> ()
    | Some (prog, key, _) ->
        let _, ms, _ = timed ~name:"cache.find" (fun () -> Verdict_cache.find cache key) in
        find_us := (ms *. 1000.) :: !find_us;
        let _, ms, _ =
          timed ~name:"runner.fork" (fun () ->
              let pid = Runner.fork_worker (fun () -> ()) in
              ignore (Unix.waitpid [] pid))
        in
        fork_ms := ms :: !fork_ms;
        let v, ms, _ = timed ~name:"worker" (fun () ->
            Worker.run ~model:Worker.Drf0 ~machine:(machine_of j) prog) in
        work_ms := ms :: !work_ms;
        (match v with
        | Ok v ->
            let _, ms, _ = timed ~name:"cache.add" (fun () -> Verdict_cache.add cache key v) in
            add_us := (ms *. 1000.) :: !add_us
        | Error `Cancelled -> ()));
    (Unix.gettimeofday () -. t0) *. 1000.
  in
  let overhead = alternate ~seconds:(seconds ()) pass in
  Verdict_cache.close cache;
  print_metrics
    ([
       med "runner.materialize_ms" !mat_ms;
       med "runner.fork_ms" !fork_ms;
       med "worker.ms" !work_ms;
       med "cache.find_us" !find_us;
       med "cache.add_us" !add_us;
     ]
    @ overhead)

(* --- fleet-oracle ------------------------------------------------------- *)

let axiomatic_models = [ Models.sc; Models.tso; Models.def1; Models.def2 ]

(* Seed [s] checked in a child process, as a fleet shard checks it, so a
   seed past the hang budget is killed there instead of stalling the
   probe.  The child times the axiomatic models first ("A <ms>"), then
   the whole three-way oracle ("O <ms>").  A phase cut by the budget
   reads as the budget itself (a censored value) and [killed] is set. *)
let check_in_child ~hang s =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Runner.fork_worker (fun () ->
        Unix.close rd;
        let say tag t0 =
          let msg = Printf.sprintf "%c %f\n" tag ((Unix.gettimeofday () -. t0) *. 1000.) in
          ignore (Unix.write_substring wr msg 0 (String.length msg))
        in
        let t0 = Unix.gettimeofday () in
        let prog = Litmus_gen.generate ~config:Fuzz.default_cfg.Fuzz.config s in
        List.iter (fun m -> ignore (Models.outcomes m prog)) axiomatic_models;
        say 'A' t0;
        let t1 = Unix.gettimeofday () in
        ignore (Fuzz.check_seed { Fuzz.default_cfg with shrink = false } s);
        say 'O' t1)
  in
  Unix.close wr;
  let deadline = Unix.gettimeofday () +. hang in
  let buf = Buffer.create 64 and chunk = Bytes.create 64 in
  let rec read () =
    let left = deadline -. Unix.gettimeofday () in
    let ready, _, _ = if left > 0. then Unix.select [ rd ] [] [] left else ([], [], []) in
    if ready = [] then false
    else
      let n = Unix.read rd chunk 0 64 in
      Buffer.add_subbytes buf chunk 0 n;
      n = 0 || read ()
  in
  let finished = read () in
  if not finished then Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  Unix.close rd;
  let ms tag =
    List.find_map
      (fun l -> try Scanf.sscanf l "%c %f" (fun c v -> if c = tag then Some v else None)
                with _ -> None)
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  (* The oracle includes the same axiomatic calls, so a cut oracle took
     at least as long as the axiomatic phase and the budget left after it. *)
  let cut = hang *. 1000. in
  let a = Option.value (ms 'A') ~default:cut in
  let o = Option.value (ms 'O') ~default:(Float.max a (cut -. a)) in
  (a, o, not finished)

let fleet () =
  let lo = int_of_string (flag_req "--lo") and hi = int_of_string (flag_req "--hi") in
  let hang = float_of_string (flag_req "--hang") in
  let next = ref lo and cut_seed = ref None in
  let oracle = ref [] and ax = ref [] and killed = ref 0 in
  (* Both passes of a step check the same seed (seed costs vary far more
     than tracing does); the traced one records it and moves on.  A seed
     the untraced pass had to cut is not run a second time. *)
  let pass () =
    let t0 = Unix.gettimeofday () in
    let s = if !next > hi then lo else !next in
    let a, o, cut =
      match !cut_seed with
      | Some r when tracing () -> r
      | _ ->
          let r, _, _ = timed ~name:"oracle.seed" (fun () -> check_in_child ~hang s) in
          r
    in
    if tracing () then begin
      ax := a :: !ax;
      oracle := o :: !oracle;
      if cut then incr killed;
      next := s + 1;
      cut_seed := None
    end
    else if cut then cut_seed := Some (a, o, cut);
    (Unix.gettimeofday () -. t0) *. 1000.
  in
  let overhead = alternate ~seconds:(seconds ()) pass in
  let seeds = List.length !oracle in
  print_metrics
    ([
       ("axiomatic.ms", sum !ax, seeds);
       ("axiomatic.seed_p99_ms", percentile 99. !ax, seeds);
       ("axiomatic.seed_max_ms", maximum !ax, seeds);
       ("axiomatic.share", share (sum !ax) (sum !oracle), seeds);
       med "oracle.seed_p50_ms" !oracle;
       ("oracle.seed_max_ms", maximum !oracle, seeds);
       ("oracle.killed", float_of_int !killed, seeds);
     ]
    @ overhead)

(* --- host speed ------------------------------------------------------------ *)

(* A fixed computation that uses only the standard library, so no change
   to the program moves it: hash-table inserts and probes over a working
   set of a few MB, short-lived lists, and a sort — the mix the explorers
   and the simulator spend their time on.  Prints the median wall time of
   three runs, in ms. *)
let calibrate () =
  let kernel () =
    let h = Hashtbl.create 4096 in
    let acc = ref 0 in
    for i = 0 to 59_999 do
      let k = i * 7919 land 0x3FFFF in
      Hashtbl.replace h k [ k; i; k lxor i ];
      match Hashtbl.find_opt h (k * 31 land 0x3FFFF) with
      | Some (x :: _) -> acc := !acc + x
      | _ -> ()
    done;
    let a = Array.init 40_000 (fun i -> i * 104729 mod 100_003) in
    Array.sort compare a;
    !acc + a.(0)
  in
  let once () =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (kernel ()));
    (Unix.gettimeofday () -. t0) *. 1000.
  in
  Printf.printf "%.6f\n" (median (List.init 3 (fun _ -> once ())))

let () =
  match args with
  | "verify" :: _ -> verify ()
  | "sim" :: _ -> sim ()
  | "serve" :: _ -> serve ()
  | "verdicts" :: _ -> verdicts ()
  | "fleet" :: _ -> fleet ()
  | "calibrate" :: _ -> calibrate ()
  | "env" :: _ ->
      Printf.printf "%d %s\n" (Domain.recommended_domain_count ()) Sys.ocaml_version
  | _ ->
      prerr_endline "usage: probe verify|sim|serve|verdicts|fleet|calibrate|env ...";
      exit 2
