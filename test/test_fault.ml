(* The resilience layer: fault injection, the reliable transport, the
   coherence sanitizer, the watchdog, and the fuel-bounded explorer. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Substring containment, for diagnostics-mention-X assertions. *)
let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

(* --- the fault schedule itself -------------------------------------------- *)

let decisions seed n =
  let f = Fault.create ~profile:Fault.chaos seed in
  List.init n (fun _ ->
      let d = Fault.decide f in
      (d.Fault.extra_delay, d.Fault.drops, d.Fault.duplicate))

let test_fault_determinism () =
  Alcotest.(check (list (triple int int bool)))
    "same seed, same schedule" (decisions 42 500) (decisions 42 500);
  check "different seeds diverge" true (decisions 1 500 <> decisions 2 500)

let test_fault_respects_profile () =
  let f = Fault.create ~profile:Fault.chaos 7 in
  for _ = 1 to 2000 do
    let d = Fault.decide f in
    check "spike bounded" true
      (d.Fault.extra_delay >= 0
      && d.Fault.extra_delay <= Fault.chaos.Fault.max_spike);
    check "drops bounded" true
      (d.Fault.drops >= 0 && d.Fault.drops <= Fault.chaos.Fault.max_drops)
  done;
  let c = Fault.counts f in
  check "some spikes occurred" true (c.Fault.n_spikes > 0);
  check "some drops occurred" true (c.Fault.n_drops > 0);
  check "some dups occurred" true (c.Fault.n_dups > 0);
  let quiet = Fault.create ~profile:Fault.quiet 7 in
  for _ = 1 to 100 do
    let d = Fault.decide quiet in
    check "quiet injects nothing" true (d = Fault.benign)
  done

(* --- transport ------------------------------------------------------------- *)

let run_handoff ?faults ?(fault_seed = 0) ?(mutation = Sim_config.No_mutation)
    policy =
  let cfg = Sim_config.make ?faults ~fault_seed ~mutation () in
  Sim_run.run ~cfg policy (Workload.fig3_handoff ())

let test_no_fault_timing_unchanged () =
  (* The transport layer under no fault profile reproduces the seed
     simulator's timing; the sanitizer is passive and changes nothing. *)
  let r = run_handoff Cpu.Def2 in
  let r' = run_handoff Cpu.Def2 in
  check_int "deterministic cycles" r.Sim_run.total_cycles r'.Sim_run.total_cycles;
  check_int "no retransmits" 0 r.Sim_run.retransmits;
  check_int "no dups" 0 r.Sim_run.dups_suppressed;
  check "sanitizer swept" true (r.Sim_run.sanitizer_checks > 0)

let test_faults_observable () =
  (* Under each fault scenario the handoff still completes, the trace still
     satisfies the Section 5.1 conditions, and the transport statistics
     show the faults actually happened. *)
  let saw_retransmit = ref false and saw_dup = ref false in
  List.iter
    (fun (name, profile) ->
      if name <> "none" then
        for seed = 0 to 9 do
          let r = run_handoff ~faults:profile ~fault_seed:seed Cpu.Def2 in
          check ("handoff correct under " ^ name) true
            (Sim_run.observation r "x" = Some 1);
          check_int
            ("conditions hold under " ^ name)
            0
            (List.length (Sim_trace.check_all (Sim_trace.events r.Sim_run.trace)));
          if r.Sim_run.retransmits > 0 then saw_retransmit := true;
          if r.Sim_run.dups_suppressed > 0 then saw_dup := true
        done)
    Fault.scenarios;
  check "loss exercised the retransmit path" true !saw_retransmit;
  check "duplication exercised the dedup path" true !saw_dup

let test_fault_run_deterministic () =
  let r = run_handoff ~faults:Fault.chaos ~fault_seed:3 Cpu.Def2 in
  let r' = run_handoff ~faults:Fault.chaos ~fault_seed:3 Cpu.Def2 in
  check_int "same seed, same cycles" r.Sim_run.total_cycles
    r'.Sim_run.total_cycles;
  check_int "same seed, same messages" r.Sim_run.messages r'.Sim_run.messages

(* --- mutation checks: the monitors catch planted bugs ---------------------- *)

let test_sanitizer_catches_skipped_invalidation () =
  (* A sharer that acks an invalidation without applying it leaves a stale
     shared copy alongside the writer's modified one: the sanitizer must
     abort with a single-writer violation and a diagnostic dump. *)
  match
    Sim_run.try_run
      ~cfg:(Sim_config.make ~mutation:Sim_config.Skip_invalidation ())
      Cpu.Def2
      (Workload.fig3_handoff ())
  with
  | Ok _ -> Alcotest.fail "sanitizer missed the skipped invalidation"
  | Error (Sim_run.Invariant diag) ->
      check "diagnostic names the invariant" true
        (contains ~affix:"single-writer" diag
        || contains ~affix:"stale" diag);
      check "diagnostic embeds the dump" true
        (contains ~affix:"directory:" diag)
  | Error f ->
      Alcotest.failf "wrong failure kind: %s" (Sim_run.failure_kind f)

let test_watchdog_catches_forgotten_ack () =
  (* A sharer that applies an invalidation but never acknowledges it wedges
     the directory line; the per-transaction deadline must escalate to a
     wedge report instead of hanging. *)
  match
    Sim_run.try_run
      ~cfg:(Sim_config.make ~mutation:Sim_config.Forget_ack ())
      Cpu.Def2
      (Workload.fig3_handoff ())
  with
  | Ok _ -> Alcotest.fail "watchdog missed the wedged directory line"
  | Error (Sim_run.Deadlock diag) | Error (Sim_run.Livelock diag) ->
      check "diagnostic embeds the dump" true
        (contains ~affix:"in-flight transactions" diag)
  | Error (Sim_run.Invariant d) ->
      Alcotest.failf "expected a wedge, got an invariant violation: %s" d

let test_dump_contents () =
  match
    Sim_run.try_run
      ~cfg:(Sim_config.make ~mutation:Sim_config.Forget_ack ())
      Cpu.Def2
      (Workload.fig3_handoff ())
  with
  | Ok _ -> Alcotest.fail "expected a wedge"
  | Error f ->
      let d = Fmt.str "%a" Sim_run.pp_failure f in
      List.iter
        (fun affix ->
          check (Printf.sprintf "dump mentions %S" affix) true
            (contains ~affix d))
        [ "directory:"; "caches:"; "recent protocol events"; "BUSY" ]

let read_file path =
  let path = if Sys.file_exists path then path else "test/" ^ path in
  In_channel.with_open_bin path In_channel.input_all

let test_dump_pinned () =
  (* The whole wedge report, journal tail included, byte for byte as the
     simulator rendered it when the journal was kept as text. *)
  match
    Sim_run.try_run
      ~cfg:(Sim_config.make ~mutation:Sim_config.Forget_ack ())
      Cpu.Def2
      (Workload.fig3_handoff ())
  with
  | Ok _ -> Alcotest.fail "expected a wedge"
  | Error f ->
      Alcotest.(check string)
        "forget-ack dump" (read_file "golden/fault_forget_ack_dump.golden")
        (Fmt.str "%a" Sim_run.pp_failure f)

let test_journal_keeps_state () =
  (* P1 reads x, then P0 writes it: the directory goes Uncached -> Shared
     -> Exclusive, and each journal entry still shows the state the line
     was in when the request arrived. *)
  let cfg = Sim_config.make ~nprocs:2 () in
  let eng = Engine.create () in
  let proto = Proto.create ~names:[| "x" |] cfg eng in
  let x = Proto.line_id proto "x" in
  Proto.read proto ~proc:1 ~line:x ~k:(fun _ ->
      Proto.modify proto ~proc:0 ~line:x ~f:(fun _ -> 1)
        ~on_commit:(fun _ -> ()));
  Engine.run eng;
  let d = Proto.dump proto in
  List.iter
    (fun affix ->
      check (Printf.sprintf "dump mentions %S" affix) true (contains ~affix d))
    [
      "x        Exclusive P0";
      "dir x: GetS from P1 (Uncached)";
      "dir x: GetX from P0 (Shared{1})";
    ]

(* --- the resilience campaign ----------------------------------------------- *)

(* Hundreds of seeded fault schedules across the litmus corpus: every run
   terminates, passes the sanitizer, and — for DRF0 programs under the
   paper's weakly-ordered policies — yields an outcome SC allows
   (Theorem 1/"appears sequentially consistent", now under interconnect
   faults). *)
(* [read_sync_release]'s [await s 0] races the other thread's [Set(s,1)]:
   on schedules where the Set wins, the await legitimately spins forever —
   a property of the program, not a protocol wedge.  The simulator runs
   one schedule per seed, so the always-terminates campaign excludes it. *)
let campaign_corpus =
  List.filter
    (fun e -> Prog.name e.Litmus_classics.prog <> "read_sync_release")
    Litmus_classics.all

let test_resilience_campaign () =
  let runs = ref 0 and wedged = ref 0 and non_sc = ref 0 in
  List.iter
    (fun entry ->
      let prog = entry.Litmus_classics.prog in
      let sc_outcomes = Machines.outcomes Machines.sc prog in
      List.iter
        (fun (name, profile) ->
          if name <> "none" then
            for seed = 0 to 4 do
              incr runs;
              let cfg =
                Sim_config.make ~faults:profile ~fault_seed:seed ()
              in
              match Sim_litmus.try_run ~cfg Cpu.Def2 prog with
              | Error f ->
                  incr wedged;
                  Alcotest.failf "%s wedged under %s seed %d: %s"
                    (Prog.name prog) name seed (Sim_run.failure_kind f)
              | Ok r ->
                  if
                    entry.Litmus_classics.drf0
                    && not (Sim_litmus.in_set prog r.Sim_litmus.final sc_outcomes)
                  then begin
                    incr non_sc;
                    Alcotest.failf
                      "%s (DRF0) produced a non-SC outcome %a under %s seed %d"
                      (Prog.name prog) Final.pp r.Sim_litmus.final name seed
                  end
            done)
        Fault.scenarios)
    campaign_corpus;
  check "at least 200 schedules" true (!runs >= 200);
  check_int "no wedged runs" 0 !wedged;
  check_int "no SC violations on DRF0 programs" 0 !non_sc

let test_campaign_all_policies () =
  (* The remaining correct policies survive a smaller sweep. *)
  List.iter
    (fun policy ->
      List.iter
        (fun entry ->
          let prog = entry.Litmus_classics.prog in
          let cfg = Sim_config.make ~faults:Fault.chaos ~fault_seed:11 () in
          match Sim_litmus.try_run ~cfg policy prog with
          | Ok _ -> ()
          | Error f ->
              Alcotest.failf "%s wedged under %s: %s" (Prog.name prog)
                (Cpu.policy_name policy) (Sim_run.failure_kind f))
        campaign_corpus)
    Cpu.all_policies

(* --- fuel-bounded exploration ---------------------------------------------- *)

let gen_config =
  {
    Litmus_gen.default_config with
    Litmus_gen.max_threads = 3;
    max_instrs = 6;
  }

let test_fuel_partial_is_subset () =
  (* On programs small enough to explore fully, every fuel bound yields a
     subset of the complete outcome set, and enough fuel yields exactly
     the complete set. *)
  for seed = 0 to 19 do
    match Litmus_gen.generate_live ~config:gen_config seed with
    | None -> ()
    | Some prog ->
        let full = Machines.outcomes Machines.ooo prog in
        List.iter
          (fun fuel ->
            match Machines.outcomes_bounded Machines.ooo ~fuel prog with
            | Explore.Complete s ->
                check "complete = full" true (Final.Set.equal s full)
            | Explore.Partial s ->
                check "partial subset of full" true (Final.Set.subset s full))
          [ 0; 1; 10; 100; 1000; 100000 ]
  done

let test_fuel_never_hangs () =
  (* On the largest generated programs a small budget must return quickly
     with Partial, never hang or raise. *)
  let big =
    {
      Litmus_gen.default_config with
      Litmus_gen.max_threads = 4;
      max_instrs = 10;
      allow_await = false;
    }
  in
  for seed = 0 to 19 do
    let prog = Litmus_gen.generate ~config:big seed in
    match Machines.outcomes_bounded Machines.ooo ~fuel:500 prog with
    | Explore.Complete _ | Explore.Partial _ -> ()
  done;
  check "bounded exploration always returned" true true

let test_fuel_zero_is_partial () =
  let prog = Litmus_classics.dekker.Litmus_classics.prog in
  match Machines.outcomes_bounded Machines.wbuf ~fuel:1 prog with
  | Explore.Complete _ -> Alcotest.fail "one state cannot finish dekker"
  | Explore.Partial s -> check_int "nothing reached" 0 (Final.Set.cardinal s)

let suite =
  ( "fault",
    [
      Alcotest.test_case "fault schedule determinism" `Quick
        test_fault_determinism;
      Alcotest.test_case "fault schedule respects profile" `Quick
        test_fault_respects_profile;
      Alcotest.test_case "no-fault timing unchanged" `Quick
        test_no_fault_timing_unchanged;
      Alcotest.test_case "faults observable, conditions hold" `Quick
        test_faults_observable;
      Alcotest.test_case "faulted runs deterministic" `Quick
        test_fault_run_deterministic;
      Alcotest.test_case "sanitizer catches skipped invalidation" `Quick
        test_sanitizer_catches_skipped_invalidation;
      Alcotest.test_case "watchdog catches forgotten ack" `Quick
        test_watchdog_catches_forgotten_ack;
      Alcotest.test_case "diagnostic dump contents" `Quick test_dump_contents;
      Alcotest.test_case "diagnostic dump pinned" `Quick test_dump_pinned;
      Alcotest.test_case "journal entries keep their state" `Quick
        test_journal_keeps_state;
      Alcotest.test_case "200+ seeded schedules terminate SC" `Slow
        test_resilience_campaign;
      Alcotest.test_case "chaos sweep across policies" `Slow
        test_campaign_all_policies;
    ] )

let fuel_suite =
  ( "explore-fuel",
    [
      Alcotest.test_case "partial is sound subset" `Quick
        test_fuel_partial_is_subset;
      Alcotest.test_case "bounded exploration never hangs" `Quick
        test_fuel_never_hangs;
      Alcotest.test_case "tiny fuel reports partial" `Quick
        test_fuel_zero_is_partial;
    ] )
