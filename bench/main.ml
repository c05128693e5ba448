(* Benchmark harness.

     dune exec bench/main.exe            -- all experiments + timing benches
     dune exec bench/main.exe -- fig1    -- one experiment
     dune exec bench/main.exe -- bechamel
     dune exec bench/main.exe -- json    -- write BENCH_<date>.json

   Experiments (see EXPERIMENTS.md):
     fig1 fig2 fig3 sec6-def1 sec6-spin sweep appendix ablate degrade

   The bechamel section times the analysis algorithms themselves (one
   Test.make per core computation), which matters for anyone scaling the
   tools to bigger tests. *)

open Bechamel
open Toolkit

let prog_of name = (Option.get (Litmus_classics.find name)).Litmus_classics.prog

let timing_tests =
  let dekker = prog_of "dekker" in
  let iriw = prog_of "iriw" in
  let mp_sync = prog_of "mp_sync" in
  let lock_mutex = prog_of "lock_mutex" in
  let handoff = Workload.fig3_handoff () in
  let locks = Workload.critical_sections () in
  [
    Test.make ~name:"sc-enumerate/dekker"
      (Staged.stage (fun () -> ignore (Sc.outcomes dekker)));
    Test.make ~name:"sc-enumerate/iriw"
      (Staged.stage (fun () -> ignore (Sc.outcomes iriw)));
    Test.make ~name:"drf0-check/mp_sync"
      (Staged.stage (fun () -> ignore (Drf.obeys mp_sync)));
    Test.make ~name:"drf0-check/lock_mutex"
      (Staged.stage (fun () -> ignore (Drf.obeys lock_mutex)));
    Test.make ~name:"machine-def2/dekker"
      (Staged.stage (fun () -> ignore (Machines.outcomes Machines.def2 dekker)));
    Test.make ~name:"machine-wbuf/dekker"
      (Staged.stage (fun () -> ignore (Machines.outcomes Machines.wbuf dekker)));
    Test.make ~name:"axiomatic-sc/dekker"
      (Staged.stage (fun () -> ignore (Models.outcomes Models.sc dekker)));
    Test.make ~name:"sim-fig3/def2"
      (Staged.stage (fun () -> ignore (Sim_run.run Cpu.Def2 handoff)));
    (let obs = Obs.create () in
     Test.make ~name:"sim-fig3/def2-traced"
       (Staged.stage (fun () -> ignore (Sim_run.run ~obs Cpu.Def2 handoff))));
    Test.make ~name:"sim-locks/def2"
      (Staged.stage (fun () -> ignore (Sim_run.run Cpu.Def2 locks)));
  ]

let run_bechamel () =
  Fmt.pr "@.==== timing the analyses themselves (bechamel) ====@.@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let grouped = Test.make_grouped ~name:"weakord" ~fmt:"%s %s" timing_tests in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  let clock = Hashtbl.find merged (Measure.label Instance.monotonic_clock) in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Fmt.pr "%-28s %12.1f ns/run@." name est
      | Some _ | None -> Fmt.pr "%-28s (no estimate)@." name)
    clock

(* --- machine-readable bench dump --------------------------------------------

   [json] measures the exploration engine itself — wall time, states
   expanded, outcome count — over the litmus corpus x machines x domain
   counts, plus the SC enumerator with the partial-order reduction on and
   off and one larger generated workload, and writes the result to
   BENCH_<date>.json so runs are comparable across commits.  Wall-clock
   timing, not bechamel: the point is one attributable number per
   configuration, including telemetry bechamel cannot see. *)

(* Entries come in four kinds, each with an honest field set (the
   renderer below emits only the fields that mean something for the
   kind — no more states_expanded doubling as "events recorded"):

     explore   an engine sweep: states, outcomes, throughput, reduction
               and symmetry telemetry
     sym       a symmetry differential: the same sweep with the
               reduction off and on, plus the outcome-set equality check
     overhead  an instrumented-vs-idle pair: wall time, the payload the
               run processed, and the on-row's overhead percentage
     cache     batch verdict-cache traffic
     service   the differential fuzzer behind weakord fuzz/serve:
               programs, oracle checks, disagreements (gated to zero)
               and the states/s throughput headline *)
type json_entry = {
  e_kind : string;
  e_name : string;
  e_machine : string;
  e_domains : int;
  e_wall_ms : float;
  e_states : int;
  e_outcomes : int;
  e_states_per_sec : int;
      (* throughput, so trajectory files capture speed per state, not just
         wall time *)
  e_suppressed : int;
      (* transitions the partial-order reduction suppressed (0 where no
         reduction applies) *)
  e_sym_group : int;  (* automorphism-group order the sweep used *)
  e_sym_hits : int;
  e_states_nosym : int;  (* sym rows: the reduction-off state count *)
  e_reduction_pct : float;
  e_outcomes_equal : bool;  (* sym rows: differential validity check *)
  e_payload : int;  (* overhead rows: units of work the run processed *)
  e_overhead_pct : float option;  (* overhead rows: on-vs-idle, on rows *)
  e_cache_hits : int;
  e_cache_misses : int;
      (* verdict-cache traffic (0 outside the batch-cache entries) *)
  e_programs : int;  (* service rows: seeds checked *)
  e_checks : int;  (* service rows: oracle comparisons *)
  e_disagreements : int;  (* service rows: must be 0 (gated) *)
  e_total_cycles : int;  (* sim rows: simulated completion time *)
  e_finals_crc : int;  (* sim rows: crc32 of the settled memory image *)
  e_stalls_crc : int;  (* sim rows: crc32 of the stall-attribution table *)
  e_minor_words : int;
      (* sim rows, and explore/sym rows at one domain: words the run
         allocated on the minor heap — fixed for a given binary, unlike
         its wall time *)
}

let entry_default =
  {
    e_kind = "explore";
    e_name = "";
    e_machine = "";
    e_domains = 1;
    e_wall_ms = 0.;
    e_states = 0;
    e_outcomes = 0;
    e_states_per_sec = 0;
    e_suppressed = 0;
    e_sym_group = 1;
    e_sym_hits = 0;
    e_states_nosym = 0;
    e_reduction_pct = 0.;
    e_outcomes_equal = true;
    e_payload = 0;
    e_overhead_pct = None;
    e_cache_hits = 0;
    e_cache_misses = 0;
    e_programs = 0;
    e_checks = 0;
    e_disagreements = 0;
    e_total_cycles = 0;
    e_finals_crc = 0;
    e_stalls_crc = 0;
    e_minor_words = 0;
  }

let per_sec states ms = if ms <= 0. then 0 else
  int_of_float (float_of_int states /. ms *. 1000.)

(* Single-shot wall time.  The major collection first keeps entries
   independent: without it, an entry is randomly charged for the GC debt
   of whatever ran before it, which on sub-millisecond sweeps dwarfs the
   work being measured. *)
let wall f =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.)

(* Words [f] allocates on the minor heap.  Exploration rows measure a
   second, warm run, so one-time set-up (layouts, automorphism groups)
   stays out of the per-state figure. *)
let minor_words f =
  let minor0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  int_of_float (Gc.minor_words () -. minor0)

let json_corpus = [ "dekker"; "dekker_sync"; "iriw"; "mp_sync"; "lock_mutex" ]
let json_domains = [ 1; 2; 4 ]

let json_machine_entries name prog m =
  List.map
    (fun domains ->
      let r, ms = wall (fun () -> Machines.explore ~domains m prog) in
      let states = r.Explore.stats.Explore.states_expanded in
      {
        entry_default with
        e_name = name;
        e_machine = Machines.name m;
        e_domains = domains;
        e_wall_ms = ms;
        e_states = states;
        e_outcomes = Final.Set.cardinal (Explore.bounded_value r.Explore.result);
        e_states_per_sec = per_sec states ms;
        e_suppressed = r.Explore.stats.Explore.suppressed;
        e_sym_group = r.Explore.stats.Explore.sym_group;
        e_sym_hits = r.Explore.stats.Explore.sym_hits;
        e_minor_words =
          (if domains = 1 then
             minor_words (fun () -> Machines.explore ~domains m prog)
           else 0);
      })
    json_domains

let json_sc_entries name prog =
  List.map
    (fun (label, reduce) ->
      let (set, states), ms = wall (fun () -> Sc.explore ~reduce prog) in
      {
        entry_default with
        e_name = name;
        e_machine = label;
        e_wall_ms = ms;
        e_states = states;
        e_outcomes = Final.Set.cardinal set;
        e_states_per_sec = per_sec states ms;
        e_minor_words = minor_words (fun () -> Sc.explore ~reduce prog);
      })
    [ ("sc", true); ("sc-nopor", false) ]

(* Tracing overhead on the hottest instrumented path (a full fig3
   simulation): the same run with the null tracer (compiled in, idle) and
   with a live ring.  The two wall times land in the json so the "cheap
   enough to leave on" claim is checked per commit, not asserted once. *)
let json_trace_entries () =
  let reps = 500 and passes = 7 in
  (* Best-of-[passes] wall time: the minimum is the least noise-polluted
     estimate of the work itself, which is what an overhead ratio needs. *)
  let measure label obs =
    let states = ref 0 in
    let best = ref infinity in
    for _ = 1 to passes do
      let (), ms =
        wall (fun () ->
            for _ = 1 to reps do
              let w = Workload.fig3_handoff () in
              let r = Sim_run.run ?obs Cpu.Def2 w in
              states := !states + r.Sim_run.total_cycles
            done)
      in
      if ms < !best then best := ms
    done;
    ignore (match obs with Some o -> Obs.recorded o | None -> 0);
    {
      entry_default with
      e_kind = "overhead";
      e_name = "sim-fig3-trace";
      e_machine = label;
      e_wall_ms = !best /. float_of_int reps;
      e_payload = !states / (reps * passes);
          (* cycles simulated per run — the work the tracer rode along on *)
    }
  in
  (* Warm up once so neither variant pays first-touch costs. *)
  ignore (Sim_run.run Cpu.Def2 (Workload.fig3_handoff ()));
  let off = measure "obs-idle" None in
  let on = measure "obs-on" (Some (Obs.create ())) in
  let pct = (on.e_wall_ms -. off.e_wall_ms) /. off.e_wall_ms *. 100. in
  Fmt.pr "tracing overhead on sim-fig3: idle %.4f ms/run, on %.4f ms/run \
          (%+.1f%%)@."
    off.e_wall_ms on.e_wall_ms pct;
  [ off; { on with e_overhead_pct = Some pct } ]

(* Overhead of --checkpoint-every at its default interval: the same def2
   sweep with no resilience config vs. periodic CRC-framed snapshots
   atomically installed to a real file.  Best-of-[passes] per variant; the
   acceptance bar (README/EXPERIMENTS) is <= 5% at the default interval,
   and the json carries both walls so every commit re-checks it instead
   of trusting the claim. *)
let json_checkpoint_entries () =
  let passes = 7 in
  let path = Filename.temp_file "weakord_bench" ".snap" in
  let measure tname prog ~reps label rcfg =
    let states = ref 0 in
    let best = ref infinity in
    for _ = 1 to passes do
      let (), ms =
        wall (fun () ->
            for _ = 1 to reps do
              let r = Machines.explore ?rcfg Machines.def2 prog in
              states := r.Explore.stats.Explore.states_expanded
            done)
      in
      if ms < !best then best := ms
    done;
    {
      entry_default with
      e_kind = "overhead";
      e_name = tname ^ "-ckpt";
      e_machine = label;
      e_wall_ms = !best /. float_of_int reps;
      e_payload = !states;
          (* states expanded per run — the work each snapshot pass covered *)
    }
  in
  let ckpt_rcfg =
    {
      Explore.rcfg_default with
      Explore.snapshot_sink = Some (fun bytes -> Snapshot.write_file path bytes);
    }
  in
  let entries =
    List.concat_map
      (fun (tname, prog, reps) ->
        ignore (Machines.explore Machines.def2 prog);
        let off = measure tname prog ~reps "ckpt-off" None in
        let on = measure tname prog ~reps "ckpt-on" (Some ckpt_rcfg) in
        let pct = (on.e_wall_ms -. off.e_wall_ms) /. off.e_wall_ms *. 100. in
        Fmt.pr
          "checkpoint overhead on %s/def2 (every %d states): off %.4f \
           ms/run, on %.4f ms/run (%+.1f%%)@."
          tname Explore.checkpoint_every_default off.e_wall_ms on.e_wall_ms
          pct;
        [ off; { on with e_overhead_pct = Some pct } ])
      [
        ("dekker", prog_of "dekker", 200);
        ("big3", prog_of "big3", 3);
      ]
  in
  (try Sys.remove path with Sys_error _ -> ());
  (try Sys.remove (Snapshot.prev_path path) with Sys_error _ -> ());
  entries

(* Batch verdict-cache throughput: the same generated corpus pushed
   through the batch worker twice against one persistent cache file — a
   cold pass (every verdict computed and appended) and a warm pass (every
   verdict served from the reloaded cache).  In-process, sequential, no
   forking: the entry isolates the cache layer, and the hit/miss counters
   land in the json so a regression in the cache key (canonicalization,
   engine-version handling) shows up as a miss storm, not a mystery
   slowdown. *)
let json_batch_entries () =
  let seeds = 30 in
  let progs =
    List.of_seq
      (Seq.map snd (Litmus_gen.seed_range ~lo:0 ~hi:(seeds - 1) ()))
  in
  let machine = Option.get (Machines.find "def2") in
  let path = Filename.temp_file "weakord_bench" ".wovc" in
  Sys.remove path;
  let pass label =
    let cache = Verdict_cache.open_file path in
    let states = ref 0 in
    let (), ms =
      wall (fun () ->
          List.iter
            (fun prog ->
              let key = Verdict_cache.key ~prog ~machine:"def2" ~model:"drf0" in
              match Verdict_cache.find cache key with
              | Some v -> states := !states + v.Verdict_cache.v_states
              | None -> (
                  match Worker.run ~model:Worker.Drf0 ~machine prog with
                  | Ok v ->
                      Verdict_cache.add cache key v;
                      states := !states + v.Verdict_cache.v_states
                  | Error `Cancelled -> ()))
            progs)
    in
    let s = Verdict_cache.stats cache in
    Verdict_cache.close cache;
    {
      entry_default with
      e_kind = "cache";
      e_name = "batch-cache";
      e_machine = label;
      e_wall_ms = ms;
      e_states = !states;
      e_outcomes = seeds;
      e_states_per_sec = per_sec !states ms;
      e_cache_hits = s.Verdict_cache.hits;
      e_cache_misses = s.Verdict_cache.misses;
    }
  in
  let cold = pass "cache-cold" in
  let warm = pass "cache-warm" in
  Fmt.pr
    "batch verdict cache over %d seeds: cold %.1f ms (%d misses), warm %.1f \
     ms (%d hits)@."
    seeds cold.e_wall_ms cold.e_cache_misses warm.e_wall_ms warm.e_cache_hits;
  (try Sys.remove path with Sys_error _ -> ());
  [ cold; warm ]

(* Differential-fuzzer throughput: the oracle pipeline behind
   [weakord fuzz] (and the per-job pipeline [weakord serve] multiplexes)
   over a fixed seed range, with and without the simulator leg.  The
   state count is deterministic per (range, flags) so the gate treats it
   like any exploration row, and the disagreement count rides along so a
   soundness break in any engine fails the bench gate, not just the
   (slower) nightly fuzz campaign. *)
let json_service_entries () =
  let row label sim lo hi =
    let cfg = { Fuzz.default_cfg with Fuzz.sim; sim_limit = 100_000 } in
    let s, ms = wall (fun () -> Fuzz.run cfg ~lo ~hi) in
    Fmt.pr
      "fuzz oracle (%s) over seeds %d..%d: %d checks, %d disagreements, %.1f \
       ms, %d states/s@."
      label lo hi s.Fuzz.checks
      (List.length s.Fuzz.disagreements)
      ms
      (per_sec s.Fuzz.states_total ms);
    {
      entry_default with
      e_kind = "service";
      e_name = "fuzz-oracle";
      e_machine = label;
      e_wall_ms = ms;
      e_states = s.Fuzz.states_total;
      e_states_per_sec = per_sec s.Fuzz.states_total ms;
      e_programs = s.Fuzz.programs;
      e_checks = s.Fuzz.checks;
      e_disagreements = List.length s.Fuzz.disagreements;
    }
  in
  [ row "oracle-sim" true 0 19; row "oracle-nosim" false 0 49 ]

(* The sharded fleet behind [weakord fleet]: the same oracle driven
   through the full supervisor pipeline — forked shard workers,
   heartbeats, result framing, merge accounting.  States and check
   counts are deterministic per (range, flags) so the row gates like any
   service row, and poison seeds count as disagreements (a clean corpus
   must quarantine nothing).  Must run before any exploration row:
   forking is only reliable while no domain has ever been spawned in
   this process. *)
let json_fleet_entries () =
  let cfg =
    {
      Fleet.default_cfg with
      Fleet.oracle = { Fuzz.default_cfg with Fuzz.sim_limit = 100_000 };
      shards = 4;
      unit_seeds = 10;
    }
  in
  let s, ms = wall (fun () -> Fleet.run cfg ~lo:0 ~hi:39) in
  Fmt.pr
    "fleet (4 shards, 10-seed units) over seeds 0..39: %d checks, %d \
     disagreements, %d poison, %.1f ms, %d states/s@."
    s.Fleet.f_checks s.Fleet.f_disagreements s.Fleet.f_poison_total ms
    (per_sec s.Fleet.f_states ms);
  [
    {
      entry_default with
      e_kind = "service";
      e_name = "fleet";
      e_machine = "4-shards";
      e_domains = 4;
      e_wall_ms = ms;
      e_states = s.Fleet.f_states;
      e_states_per_sec = per_sec s.Fleet.f_states ms;
      e_programs = s.Fleet.f_programs;
      e_checks = s.Fleet.f_checks;
      e_disagreements = s.Fleet.f_disagreements + s.Fleet.f_poison_total;
    };
  ]

(* Symmetry-reduction differential: the same sweep with the orbit
   reduction off and on.  Two numbers matter per row: the state-count
   reduction (the point of the feature) and the outcome-set equality
   check (its soundness probe — the reduction may change how many states
   are visited, never which outcomes exist).  bench_gate.py requires at
   least one row per program at >= 30% reduction with equal outcomes, so
   both claims are re-verified on every commit. *)
let json_sym_entries () =
  List.concat_map
    (fun name ->
      let prog = prog_of name in
      List.map
        (fun m ->
          let nosym, _ =
            wall (fun () ->
                Machines.explore
                  ~rcfg:{ Explore.rcfg_default with Explore.sym = false }
                  m prog)
          in
          let symr, ms = wall (fun () -> Machines.explore m prog) in
          let off = nosym.Explore.stats.Explore.states_expanded in
          let on = symr.Explore.stats.Explore.states_expanded in
          let equal =
            Final.Set.equal
              (Explore.bounded_value nosym.Explore.result)
              (Explore.bounded_value symr.Explore.result)
          in
          let pct =
            if off = 0 then 0.
            else float_of_int (off - on) /. float_of_int off *. 100.
          in
          Fmt.pr
            "symmetry on %s/%s: %d -> %d states (-%.1f%%, group %d, \
             outcomes %s)@."
            name (Machines.name m) off on pct
            symr.Explore.stats.Explore.sym_group
            (if equal then "equal" else "DIFFER");
          {
            entry_default with
            e_kind = "sym";
            e_name = name;
            e_machine = Machines.name m;
            e_wall_ms = ms;
            e_states = on;
            e_states_nosym = off;
            e_reduction_pct = pct;
            e_sym_group = symr.Explore.stats.Explore.sym_group;
            e_sym_hits = symr.Explore.stats.Explore.sym_hits;
            e_outcomes =
              Final.Set.cardinal (Explore.bounded_value symr.Explore.result);
            e_outcomes_equal = equal;
            e_states_per_sec = per_sec on ms;
            e_minor_words = minor_words (fun () -> Machines.explore m prog);
          })
        [ Machines.def2; Machines.ooo ])
    [ "iriw"; "big3" ]

(* Timing-simulator scale rows: the spin-heavy workloads at 8..64 cores
   under both definitions in the shipping engine configuration (heap
   queue, batching, spin parking), plus one naive reference row per
   definition — pipeline at 64 cores with parking and batching off — for
   the events-shed ratio the gate enforces.  The settled memory image and
   the stall-attribution table are pinned by CRC: simulation is
   deterministic, so a sim row whose crc or total_cycles moves without a
   deliberate baseline refresh is a timing regression, not noise.
   Sanitizer off: these rows measure the engine, not the checker. *)
let sim_workloads =
  [
    ("locks", fun nprocs -> Workload.critical_sections ~nprocs ());
    ("ticket", fun nprocs -> Workload.ticket_lock ~nprocs ());
    ("sense", fun nprocs -> Workload.sense_barrier ~nprocs ());
    ("pipeline", fun nprocs -> Workload.pipeline ~nprocs ());
  ]

let json_sim_entries () =
  let finals_crc finals =
    Crc32.digest
      (String.concat ";"
         (List.map (fun (l, v) -> Printf.sprintf "%s=%d" l v) finals))
  in
  let stalls_crc stalls =
    Crc32.digest
      (String.concat ";"
         (List.map
            (fun (p, cause, loc, c) -> Printf.sprintf "%d,%s,%s,%d" p cause loc c)
            (Obs.Stall.rows stalls)))
  in
  let row name gen policy label ~nprocs ~naive =
    let cfg =
      Sim_config.make ~sanitize:false ~park_spins:(not naive)
        ~batch_events:(not naive) ()
    in
    let (r, minor_words), ms =
      wall (fun () ->
          let w = gen nprocs in
          let minor0 = Gc.minor_words () in
          let r = Sim_run.run ~cfg policy w in
          (r, int_of_float (Gc.minor_words () -. minor0)))
    in
    Fmt.pr "sim %-9s %-12s n=%-3d %8d events %7d cycles %8.1f ms@." name label
      nprocs r.Sim_run.events r.Sim_run.total_cycles ms;
    {
      entry_default with
      e_kind = "sim";
      e_name = name;
      e_machine = label;
      e_domains = nprocs;
      e_wall_ms = ms;
      e_states = r.Sim_run.events;
      e_states_per_sec = per_sec r.Sim_run.events ms;
      e_total_cycles = r.Sim_run.total_cycles;
      e_finals_crc = finals_crc r.Sim_run.finals;
      e_stalls_crc = stalls_crc r.Sim_run.stalls;
      e_minor_words = minor_words;
    }
  in
  let policies = [ (Cpu.Def1, "def1"); (Cpu.Def2_rs, "def2-rs") ] in
  List.concat_map
    (fun (name, gen) ->
      List.concat_map
        (fun (policy, label) ->
          List.map
            (fun nprocs -> row name gen policy label ~nprocs ~naive:false)
            [ 8; 16; 32; 64 ])
        policies)
    sim_workloads
  @ List.map
      (fun (policy, label) ->
        row "pipeline"
          (fun nprocs -> Workload.pipeline ~nprocs ())
          policy (label ^ "-naive") ~nprocs:64 ~naive:true)
      policies

let write_json ?out entries =
  let tm = Unix.localtime (Unix.time ()) in
  let date =
    Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
  in
  let file =
    match out with
    | Some f -> f
    | None -> Printf.sprintf "BENCH_%s.json" date
  in
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\n  \"date\": %S,\n  \"cores\": %d,\n  \"entries\": [\n"
    date
    (Domain.recommended_domain_count ());
  (* Per-kind rendering: every row carries only fields that mean
     something for its kind, so the gate (and any reader) never has to
     guess whether states_expanded is really a state count. *)
  let render e =
    let common =
      Printf.sprintf
        "\"name\": %S, \"machine\": %S, \"kind\": %S, \"domains\": %d, \
         \"wall_ms\": %.3f"
        e.e_name e.e_machine e.e_kind e.e_domains e.e_wall_ms
    in
    match e.e_kind with
    | "overhead" ->
        Printf.sprintf "{%s, \"payload\": %d, \"overhead_pct\": %s}" common
          e.e_payload
          (match e.e_overhead_pct with
          | Some p -> Printf.sprintf "%.2f" p
          | None -> "null")
    | "sym" ->
        Printf.sprintf
          "{%s, \"states_expanded\": %d, \"states_nosym\": %d, \
           \"reduction_pct\": %.1f, \"sym_group\": %d, \"sym_hits\": %d, \
           \"outcomes\": %d, \"outcomes_equal\": %s, \"states_per_sec\": %d, \
           \"minor_words\": %d}"
          common e.e_states e.e_states_nosym e.e_reduction_pct e.e_sym_group
          e.e_sym_hits e.e_outcomes
          (if e.e_outcomes_equal then "true" else "false")
          e.e_states_per_sec e.e_minor_words
    | "service" ->
        Printf.sprintf
          "{%s, \"states_expanded\": %d, \"programs\": %d, \"checks\": %d, \
           \"disagreements\": %d, \"states_per_sec\": %d}"
          common e.e_states e.e_programs e.e_checks e.e_disagreements
          e.e_states_per_sec
    | "cache" ->
        Printf.sprintf
          "{%s, \"states_expanded\": %d, \"outcomes\": %d, \
           \"states_per_sec\": %d, \"cache_hits\": %d, \"cache_misses\": %d}"
          common e.e_states e.e_outcomes e.e_states_per_sec e.e_cache_hits
          e.e_cache_misses
    | "sim" ->
        Printf.sprintf
          "{%s, \"events\": %d, \"events_per_sec\": %d, \"total_cycles\": %d, \
           \"finals_crc\": %d, \"stalls_crc\": %d, \"minor_words\": %d}"
          common e.e_states e.e_states_per_sec e.e_total_cycles e.e_finals_crc
          e.e_stalls_crc e.e_minor_words
    | _ ->
        Printf.sprintf
          "{%s, \"states_expanded\": %d, \"outcomes\": %d, \
           \"states_per_sec\": %d, \"suppressed_transitions\": %d, \
           \"sym_group\": %d, \"sym_hits\": %d%s}"
          common e.e_states e.e_outcomes e.e_states_per_sec e.e_suppressed
          e.e_sym_group e.e_sym_hits
          (if e.e_domains = 1 then
             Printf.sprintf ", \"minor_words\": %d" e.e_minor_words
           else "")
  in
  List.iteri
    (fun i e ->
      Printf.bprintf b "    %s%s\n" (render e)
        (if i = List.length entries - 1 then "" else ","))
    entries;
  Buffer.add_string b "  ]\n}\n";
  (* Atomic install: a bench run killed mid-dump never leaves a truncated
     json for the comparison tooling to choke on. *)
  Atomic_io.write_file file (Buffer.contents b);
  Fmt.pr "wrote %s (%d entries)@." file (List.length entries)

let run_json ?out () =
  (* Fleet first: it forks shard workers, and fork is only reliable
     before the exploration rows below spawn any domain. *)
  let fleet_entries = json_fleet_entries () in
  let entries =
    List.concat_map
      (fun tname ->
        let prog = prog_of tname in
        List.concat_map
          (json_machine_entries tname prog)
          [ Machines.def2; Machines.wbuf; Machines.ooo ]
        @ json_sc_entries tname prog)
      json_corpus
    @
    let prog = prog_of "big3" in
    List.concat_map
      (json_machine_entries "big3" prog)
      [ Machines.def2; Machines.wbuf; Machines.ooo ]
    @ json_sc_entries "big3" prog @ json_sym_entries ()
    @ json_trace_entries () @ json_checkpoint_entries ()
    @ json_batch_entries () @ json_service_entries () @ fleet_entries
    @ json_sim_entries ()
  in
  write_json ?out entries

(* Only the timing-simulator rows: fast enough for a dedicated CI job
   (`bench_gate.py --kinds sim` against the committed baseline). *)
let run_json_sim ?out () = write_json ?out (json_sim_entries ())

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] ->
      Experiments.all ();
      run_bechamel ()
  | [ "fig1" ] -> Experiments.fig1 ()
  | [ "fig2" ] -> Experiments.fig2 ()
  | [ "fig3" ] -> Experiments.fig3 ()
  | [ "sec6-def1" ] -> Experiments.sec6_def1 ()
  | [ "sec6-spin" ] -> Experiments.sec6_spin ()
  | [ "sweep" ] -> Experiments.sweep ()
  | [ "appendix" ] -> Experiments.appendix ()
  | [ "ablate" ] -> Experiments.ablate ()
  | [ "degrade" ] -> Experiments.degrade ()
  | [ "bechamel" ] -> run_bechamel ()
  | [ "json" ] -> run_json ()
  | [ "json"; "-o"; file ] -> run_json ~out:file ()
  | [ "json-sim" ] -> run_json_sim ()
  | [ "json-sim"; "-o"; file ] -> run_json_sim ~out:file ()
  | _ ->
      prerr_endline
        "usage: main.exe \
         [fig1|fig2|fig3|sec6-def1|sec6-spin|sweep|appendix|ablate|degrade|\
         bechamel|json [-o FILE]|json-sim [-o FILE]]";
      exit 2
