(* Tests for the timing simulator: engine, protocol, policies, and the
   paper's performance claims in miniature. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Engine ---------------------------------------------------------------- *)

let test_engine_order () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~delay:5 (fun () -> log := 5 :: !log);
  Engine.schedule eng ~delay:1 (fun () -> log := 1 :: !log);
  Engine.schedule eng ~delay:3 (fun () ->
      log := 3 :: !log;
      Engine.schedule eng ~delay:1 (fun () -> log := 4 :: !log));
  Engine.run eng;
  Alcotest.(check (list int)) "time order" [ 1; 3; 4; 5 ] (List.rev !log);
  check_int "now at end" 5 (Engine.now eng)

let test_engine_ties_fifo () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule eng ~delay:2 (fun () -> log := i :: !log)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_limit () =
  let eng = Engine.create () in
  let rec forever () = Engine.schedule eng ~delay:10 forever in
  forever ();
  check "livelock trapped" true
    (try
       Engine.run ~limit:1000 eng;
       false
     with Engine.Out_of_time -> true)

(* --- Protocol -------------------------------------------------------------- *)

let cfg = Sim_config.make ~nprocs:2 ~net:20 ~dir_occupancy:4 ()

let test_read_miss_latency () =
  let eng = Engine.create () in
  let proto = Proto.create ~init:[ ("x", 7) ] ~names:[| "x" |] cfg eng in
  let x = Proto.line_id proto "x" in
  let got = ref None in
  Proto.read proto ~proc:0 ~line:x ~k:(fun v -> got := Some (v, Engine.now eng));
  Engine.run eng;
  (* request hop + directory occupancy + reply hop *)
  Alcotest.(check (option (pair int int))) "value and latency" (Some (7, 44)) !got

let test_read_hit_after_miss () =
  let eng = Engine.create () in
  let proto = Proto.create ~init:[ ("x", 7) ] ~names:[| "x" |] cfg eng in
  let x = Proto.line_id proto "x" in
  let t2 = ref 0 in
  Proto.read proto ~proc:0 ~line:x ~k:(fun _ ->
      let t1 = Engine.now eng in
      Proto.read proto ~proc:0 ~line:x ~k:(fun _ -> t2 := Engine.now eng - t1));
  Engine.run eng;
  check_int "hit costs cache_hit" cfg.Sim_config.cache_hit !t2

let test_write_invalidates_sharer () =
  let eng = Engine.create () in
  let proto = Proto.create ~names:[| "x" |] cfg eng in
  let x = Proto.line_id proto "x" in
  (* P1 caches x, then P0 writes it: P1 must be invalidated; P0's write is
     globally performed only after the directory's ack. *)
  Proto.read proto ~proc:1 ~line:x ~k:(fun _ ->
      Proto.modify proto ~proc:0 ~line:x ~f:(fun _ -> 9) ~on_commit:(fun _ -> ()));
  Engine.run eng;
  check_int "one invalidation" 1 (Proto.stats proto).Proto.invalidations;
  check_int "settled value" 9 (Proto.settled_value proto x);
  check_int "counter drained" 0 (Proto.counter proto 0);
  check "P1 invalid" true (Proto.line_state proto 1 x = Proto.I)

let test_counter_tracks_gp () =
  let eng = Engine.create () in
  let proto = Proto.create ~names:[| "x" |] cfg eng in
  let x = Proto.line_id proto "x" in
  let at_commit = ref (-1) in
  let at_zero = ref (-1) in
  Proto.read proto ~proc:1 ~line:x ~k:(fun _ ->
      Proto.modify proto ~proc:0 ~line:x ~f:(fun _ -> 1) ~on_commit:(fun _ ->
          at_commit := Proto.counter proto 0;
          Proto.when_counter_zero proto 0 (fun () ->
              at_zero := Engine.now eng)));
  Engine.run eng;
  check_int "outstanding at commit" 1 !at_commit;
  check "gp strictly after commit" true (!at_zero > 0)

let test_rmw_applies_function () =
  let eng = Engine.create () in
  let proto = Proto.create ~init:[ ("c", 10) ] ~names:[| "c" |] cfg eng in
  let c = Proto.line_id proto "c" in
  let old = ref 0 in
  Proto.modify proto ~proc:0 ~line:c ~f:(fun v -> v + 5) ~on_commit:(fun o -> old := o);
  Engine.run eng;
  check_int "old value" 10 !old;
  check_int "new value" 15 (Proto.settled_value proto c)

let test_exclusive_handoff () =
  let eng = Engine.create () in
  let proto = Proto.create ~names:[| "x" |] cfg eng in
  let x = Proto.line_id proto "x" in
  (* P0 owns x dirty; P1 reads it: value must come from P0's cache. *)
  Proto.modify proto ~proc:0 ~line:x ~f:(fun _ -> 42) ~on_commit:(fun _ ->
      Proto.read proto ~proc:1 ~line:x ~k:(fun v ->
          Alcotest.(check int) "dirty value forwarded" 42 v));
  Engine.run eng;
  check "both shared afterwards" true
    (Proto.line_state proto 0 x = Proto.S && Proto.line_state proto 1 x = Proto.S)

let test_reservation_defers_foreign_request () =
  let eng = Engine.create () in
  let proto = Proto.create ~names:[| "s"; "y" |] cfg eng in
  let s = Proto.line_id proto "s" and y = Proto.line_id proto "y" in
  let p1_done = ref (-1) in
  let gp_time = ref (-1) in
  (* P1 shares y; P0 writes y (slow gp), immediately owns s (uncached GetX),
     reserves it, and P1 then requests s: the request must wait for P0's
     counter to drain. *)
  Proto.read proto ~proc:1 ~line:y ~k:(fun _ ->
      (* P0 acquires s first so the sync commit is a local hit later. *)
      Proto.modify proto ~proc:0 ~line:s ~f:(fun _ -> 1) ~on_commit:(fun _ ->
          Proto.modify proto ~proc:0 ~line:y ~f:(fun _ -> 1) ~on_commit:(fun _ ->
              (* sync commit on s: a cache hit; reserve it *)
              Proto.modify proto ~proc:0 ~line:s ~f:(fun _ -> 0)
                ~on_commit:(fun _ ->
                  Proto.reserve_if_outstanding proto ~proc:0 ~line:s;
                  Alcotest.(check bool) "reserved" true
                    (Proto.line_reserved proto 0 s);
                  Proto.when_counter_zero proto 0 (fun () ->
                      gp_time := Engine.now eng)));
          (* P1 asks for s concurrently, so its request reaches P0 just
             after the reservation is placed and before the write of y is
             globally performed. *)
          Engine.schedule eng ~delay:2 (fun () ->
              Proto.modify proto ~proc:1 ~line:s ~f:(fun v -> v)
                ~on_commit:(fun _ -> p1_done := Engine.now eng))));
  Engine.run eng;
  check "deferral recorded" true ((Proto.stats proto).Proto.deferrals >= 1);
  check "P1 served only after gp" true (!p1_done > !gp_time && !gp_time > 0)

(* --- Policies and workloads -------------------------------------------------- *)

let test_determinism () =
  let w = Workload.critical_sections () in
  let a = Sim_run.run Cpu.Def2 w in
  let b = Sim_run.run Cpu.Def2 w in
  check_int "same cycles" a.Sim_run.total_cycles b.Sim_run.total_cycles;
  check_int "same messages" a.Sim_run.messages b.Sim_run.messages

let test_handoff_correct_under_all () =
  let w = Workload.fig3_handoff () in
  List.iter
    (fun p ->
      let r = Sim_run.run p w in
      Alcotest.(check (option int))
        (Cpu.policy_name p ^ " observes x=1")
        (Some 1) (Sim_run.observation r "x"))
    Cpu.all_policies

let test_fig3_stall_shape () =
  (* The figure's claim: Definition 1 stalls P0 at the Unset; the new
     implementation never stalls P0; P1 stalls under both. *)
  let w = Workload.fig3_handoff () in
  let d1 = Sim_run.run Cpu.Def1 w in
  let d2 = Sim_run.run Cpu.Def2 w in
  let p0 r = r.Sim_run.proc_stats.(0) in
  check "def1 stalls P0 before its sync" true ((p0 d1).Cpu.stall_pre_sync > 0);
  check_int "def2 P0 pre-sync stall" 0 (p0 d2).Cpu.stall_pre_sync;
  check_int "def2 P0 post-sync stall" 0 (p0 d2).Cpu.stall_sync_gp;
  check "def2 finishes P0 earlier" true ((p0 d2).Cpu.finish < (p0 d1).Cpu.finish);
  check "condition 5 deferred P1" true (d2.Sim_run.deferrals >= 1)

let test_barrier_serialization () =
  (* Section 6: base def2 serializes sync-read spinning; the refinement and
     def1 do not. *)
  let w = Workload.spin_barrier ~nprocs:4 ~sync_spin:true () in
  let base = Sim_run.run Cpu.Def2 w in
  let relaxed = Sim_run.run Cpu.Def2_rs w in
  let def1 = Sim_run.run Cpu.Def1 w in
  check "base def2 slower" true
    (base.Sim_run.total_cycles > relaxed.Sim_run.total_cycles);
  check "base def2 needs more messages" true
    (base.Sim_run.messages > relaxed.Sim_run.messages);
  check "def1 comparable to relaxed" true
    (def1.Sim_run.total_cycles <= base.Sim_run.total_cycles)

let test_critical_sections_ordering () =
  (* The quantitative comparison the paper calls for: weak beats strong. *)
  let w = Workload.critical_sections () in
  let sc = (Sim_run.run Cpu.Sc w).Sim_run.total_cycles in
  let d1 = (Sim_run.run Cpu.Def1 w).Sim_run.total_cycles in
  let d2 = (Sim_run.run Cpu.Def2 w).Sim_run.total_cycles in
  check "def1 <= sc" true (d1 <= sc);
  check "def2 <= def1" true (d2 <= d1);
  check "def2 strictly beats sc" true (d2 < sc)

let test_pipeline_delivers_data () =
  List.iter
    (fun p ->
      let r = Sim_run.run p (Workload.pipeline ()) in
      check
        (Cpu.policy_name p ^ " pipeline data correct")
        true
        (r.Sim_run.observations <> []
        && List.for_all (fun o -> o.Cpu.o_value > 0) r.Sim_run.observations))
    Cpu.all_policies

let test_finals_settle () =
  let w = Workload.critical_sections ~nprocs:3 ~rounds:2 () in
  List.iter
    (fun p ->
      let r = Sim_run.run p w in
      (* Every processor's private flag must be written. *)
      for i = 0 to 2 do
        Alcotest.(check (option int))
          (Printf.sprintf "%s private%d" (Cpu.policy_name p) i)
          (Some 1)
          (Sim_run.final r (Printf.sprintf "private%d" i))
      done)
    Cpu.all_policies

(* --- Section 5.1 condition checking on traces ------------------------------ *)

let workloads =
  [
    ("fig3", Workload.fig3_handoff ());
    ("locks", Workload.critical_sections ());
    ("barrier", Workload.spin_barrier ());
    ("pipeline", Workload.pipeline ());
  ]

let test_def2_satisfies_conditions () =
  (* The base def2 policy implements the Section 5.1 conditions; the trace
     checker must find no violation on any workload, with or without
     network reordering. *)
  List.iter
    (fun jitter ->
      let cfg = Sim_config.make ~net_jitter:jitter () in
      List.iter
        (fun (name, w) ->
          let r = Sim_run.run ~cfg Cpu.Def2 w in
          match Sim_trace.check_all (Sim_trace.events r.Sim_run.trace) with
          | [] -> ()
          | v :: _ ->
              Alcotest.failf "def2 %s jitter=%d: %a" name jitter
                Sim_trace.pp_violation v)
        workloads)
    [ 0; 13; 55 ]

let test_all_policies_clean_on_spinless_workloads () =
  (* The Section 5.1 conditions are the spec of the def2 implementation:
     policies that serve sync reads from shared copies (sc, def1, def2-rs)
     can read a stale value in the window before an in-flight invalidation
     lands, which condition 3 — as a property of commit timestamps — counts
     as out-of-order.  On workloads without sync-read spinning, however,
     every policy is clean. *)
  List.iter
    (fun (name, w) ->
      List.iter
        (fun p ->
          let r = Sim_run.run p w in
          Alcotest.(check int)
            (Printf.sprintf "%s %s violations" name (Cpu.policy_name p))
            0
            (List.length (Sim_trace.check_all (Sim_trace.events r.Sim_run.trace))))
        Cpu.all_policies)
    [
      ("fig3", Workload.fig3_handoff ());
      ("locks", Workload.critical_sections ());
    ]

let test_noresv_violates_condition5 () =
  (* Removing the reserve bits breaks condition 5 on the Figure 3 pattern,
     and the trace checker catches it even when the uniform-latency
     schedule happens to hide the stale read end to end. *)
  let r = Sim_run.run Cpu.Def2_noresv (Workload.fig3_handoff ()) in
  let v = Sim_trace.check_condition5 (Sim_trace.events r.Sim_run.trace) in
  check "condition 5 violated" true (v <> []);
  (* And with network reordering the breakage becomes observable: the
     consumer reads stale data. *)
  let cfg = Sim_config.make ~net_jitter:30 () in
  let r = Sim_run.run ~cfg Cpu.Def2_noresv (Workload.fig3_handoff ()) in
  Alcotest.(check (option int)) "stale datum observed" (Some 0)
    (Sim_run.observation r "x")

let test_def2_correct_under_jitter () =
  List.iter
    (fun jitter ->
      let cfg = Sim_config.make ~net_jitter:jitter () in
      let r = Sim_run.run ~cfg Cpu.Def2 (Workload.fig3_handoff ()) in
      Alcotest.(check (option int))
        (Printf.sprintf "jitter %d" jitter)
        (Some 1) (Sim_run.observation r "x"))
    [ 0; 10; 30; 55; 90; 120 ]

let test_trace_times_ordered () =
  (* Every completed event has gen <= commit <= gp. *)
  let r = Sim_run.run Cpu.Def2 (Workload.critical_sections ()) in
  List.iter
    (fun e ->
      if e.Sim_trace.ecommit >= 0 then begin
        check "gen <= commit" true (e.Sim_trace.egen <= e.Sim_trace.ecommit);
        if e.Sim_trace.egp >= 0 then
          check "commit <= gp" true (e.Sim_trace.ecommit <= e.Sim_trace.egp)
      end)
    (Sim_trace.events r.Sim_run.trace)

let test_ticket_lock_fifo () =
  (* Ticket lock: critical sections execute in ticket order under every
     policy, so the last writer is always the last processor. *)
  List.iter
    (fun p ->
      let r = Sim_run.run p (Workload.ticket_lock ()) in
      Alcotest.(check (option int))
        (Cpu.policy_name p ^ " FIFO order held")
        (Some 4) (Sim_run.final r "shared"))
    Cpu.all_policies

let test_sense_barrier_serialization () =
  (* The Section 6 penalty on a realistic barrier: base def2 serializes the
     sync-read spinning; the refinement does not. *)
  let w = Workload.sense_barrier () in
  let base = (Sim_run.run Cpu.Def2 w).Sim_run.total_cycles in
  let relaxed = (Sim_run.run Cpu.Def2_rs w).Sim_run.total_cycles in
  check "base def2 pays for exclusive spinning" true (base > relaxed)

let test_new_workloads_def2_conditions () =
  List.iter
    (fun w ->
      let r = Sim_run.run Cpu.Def2 w in
      Alcotest.(check int)
        (w.Workload.name ^ " def2 violations")
        0
        (List.length (Sim_trace.check_all (Sim_trace.events r.Sim_run.trace))))
    [ Workload.ticket_lock (); Workload.sense_barrier () ]

(* --- Spin parking ------------------------------------------------------------ *)

(* Parking must be invisible in every observable: the full timing
   fingerprint (normalized trace, stall table, finals, total cycles) and
   the per-processor statistics of a parked run are byte-for-byte those of
   the same run with parking off. *)
let fingerprint ~cfg policy w =
  let obs = Obs.create () in
  let r = Sim_run.run ~cfg ~obs policy w in
  ( Sim_run.golden_artifact ~obs r,
    r.Sim_run.proc_stats,
    r.Sim_run.events,
    r.Sim_run.finals )

(* Byte-equality holds across the matrix except in the most collision-prone
   cells: ticket16 parks 15 same-phase spinners on one line, and when two
   of their post-invalidation reads miss on the same cycle, the resumed
   events' within-cycle order (their tie-break seq is allocated at wake,
   in per-line delivery order) can differ from the live chains' order
   (inherited from spin entry, cycle by cycle, since before the park) — a
   tie-break the wake cannot reconstruct, because the live chain may have
   allocated it on a cycle that has already passed.  Excluded cells keep
   the weaker guarantees: identical finals and no extra events.  See
   DESIGN.md (event engine / spin parking) for the full analysis. *)
let park_exact name p =
  match (name, p) with "ticket16", (Cpu.Sc | Cpu.Def2_rs) -> false | _ -> true

let park_matrix =
  [
    ("fig3", fun () -> Workload.fig3_handoff ());
    ("barrier8", fun () -> Workload.spin_barrier ~nprocs:8 ~sync_spin:true ());
    ("locks8", fun () -> Workload.critical_sections ~nprocs:8 ());
    ("pipeline8", fun () -> Workload.pipeline ~nprocs:8 ());
    ("ticket16", fun () -> Workload.ticket_lock ~nprocs:16 ());
    ("sense16", fun () -> Workload.sense_barrier ~nprocs:16 ());
  ]

let test_parking_invisible () =
  List.iter
    (fun (name, gen) ->
      List.iter
        (fun p ->
          let on, st_on, ev_on, fin_on =
            fingerprint ~cfg:(Sim_config.make ()) p (gen ())
          in
          let off, st_off, ev_off, fin_off =
            fingerprint ~cfg:(Sim_config.make ~park_spins:false ()) p (gen ())
          in
          if park_exact name p then begin
            Alcotest.(check string)
              (Printf.sprintf "%s %s fingerprint" name (Cpu.policy_name p))
              off on;
            check
              (Printf.sprintf "%s %s proc stats" name (Cpu.policy_name p))
              true
              (st_on = st_off)
          end
          else
            check
              (Printf.sprintf "%s %s finals" name (Cpu.policy_name p))
              true
              (fin_on = fin_off);
          (* The whole point: a parked spin costs fewer engine events. *)
          check
            (Printf.sprintf "%s %s no extra events" name (Cpu.policy_name p))
            true (ev_on <= ev_off))
        Cpu.all_policies)
    park_matrix

let test_parking_invisible_under_faults () =
  (* Fault-perturbed delivery times move the wake cycles around; the replay
     must still reproduce the unparked run exactly.  Cells verified byte-
     identical under chaos for every listed policy and seed; spin-collision
     ambiguity (see [park_exact]) excludes barrier8 under def2-rs and all
     of ticket16, which is held to the finals guarantee below. *)
  List.iter
    (fun (name, gen, policies) ->
      List.iter
        (fun p ->
          List.iter
            (fun seed ->
              let go park =
                fingerprint
                  ~cfg:
                    (Sim_config.make ~faults:Fault.chaos ~fault_seed:seed
                       ~park_spins:park ())
                  p (gen ())
              in
              let on, st_on, _, _ = go true in
              let off, st_off, _, _ = go false in
              Alcotest.(check string)
                (Printf.sprintf "%s %s seed %d" name (Cpu.policy_name p) seed)
                off on;
              check
                (Printf.sprintf "%s %s seed %d stats" name (Cpu.policy_name p)
                   seed)
                true
                (st_on = st_off))
            [ 0; 1; 2 ])
        policies)
    [
      ( "barrier8",
        (fun () -> Workload.spin_barrier ~nprocs:8 ~sync_spin:true ()),
        [ Cpu.Def1 ] );
      ( "locks8",
        (fun () -> Workload.critical_sections ~nprocs:8 ()),
        [ Cpu.Def1; Cpu.Def2_rs ] );
      ( "pipeline16",
        (fun () -> Workload.pipeline ~nprocs:16 ()),
        [ Cpu.Def1; Cpu.Def2_rs ] );
    ];
  (* ticket16 under chaos: the weak guarantee must still hold. *)
  List.iter
    (fun seed ->
      let go park =
        fingerprint
          ~cfg:
            (Sim_config.make ~faults:Fault.chaos ~fault_seed:seed
               ~park_spins:park ())
          Cpu.Def1
          (Workload.ticket_lock ~nprocs:16 ())
      in
      let _, _, _, fin_on = go true in
      let _, _, _, fin_off = go false in
      check
        (Printf.sprintf "ticket16 def1 seed %d finals" seed)
        true
        (fin_on = fin_off))
    [ 0; 1; 2 ]

let test_parking_saves_events () =
  (* At scale the saving is the headline: a 16-core spin-heavy run must
     shed the bulk of its per-iteration events. *)
  let _, _, ev_on, _ =
    fingerprint ~cfg:(Sim_config.make ())
      Cpu.Def1
      (Workload.pipeline ~nprocs:16 ())
  in
  let _, _, ev_off, _ =
    fingerprint
      ~cfg:(Sim_config.make ~park_spins:false ~batch_events:false ())
      Cpu.Def1
      (Workload.pipeline ~nprocs:16 ())
  in
  check "parked run sheds most events" true (ev_on * 5 < ev_off)

(* --- Fault campaign at 16 cores ---------------------------------------------- *)

let test_scaled_workloads_under_faults () =
  (* Every fault scenario, several seeds, sanitizer on: the scaled lock and
     barrier workloads must still settle to the correct finals with no
     sanitizer or watchdog noise. *)
  List.iter
    (fun (scenario, profile) ->
      List.iter
        (fun seed ->
          let cfg = Sim_config.make ~faults:profile ~fault_seed:seed () in
          let r =
            Sim_run.run ~cfg Cpu.Def2 (Workload.ticket_lock ~nprocs:16 ())
          in
          Alcotest.(check (option int))
            (Printf.sprintf "ticket16 %s seed %d last writer" scenario seed)
            (Some 16)
            (Sim_run.final r "shared");
          let r =
            Sim_run.run ~cfg Cpu.Def1 (Workload.sense_barrier ~nprocs:16 ())
          in
          Alcotest.(check (option int))
            (Printf.sprintf "sense16 %s seed %d arrivals" scenario seed)
            (Some 32)
            (Sim_run.final r "count"))
        [ 0; 1; 2 ])
    Fault.scenarios

(* --- Operation-trace pins ------------------------------------------------------ *)

(* CRC-32 of a run's materialised trace: every field of every event, in
   generation order.  The values were taken from the simulator as it was
   when each operation was a heap record, so they show that the flat
   operation log reproduces that trace exactly. *)
let trace_crc r =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Printf.bprintf b "%d,%d,%b,%b,%b,%s,%d,%d,%d;" e.Sim_trace.ep
        e.Sim_trace.eidx e.Sim_trace.sync e.Sim_trace.reads
        e.Sim_trace.writes e.Sim_trace.eloc e.Sim_trace.egen
        e.Sim_trace.ecommit e.Sim_trace.egp)
    (Sim_trace.events r.Sim_run.trace);
  Crc32.digest (Buffer.contents b)

let test_trace_pins () =
  let pin ~cfg label policy w ~ops ~crc =
    let r = Sim_run.run ~cfg policy w in
    let label = Printf.sprintf "%s %s" label (Cpu.policy_name policy) in
    check_int (label ^ " operations") ops (Sim_trace.length r.Sim_run.trace);
    check_int (label ^ " trace crc") crc (trace_crc r)
  in
  (* The golden-fingerprint cells (test/golden/sim_<name>_<policy>), default config. *)
  List.iter
    (fun (label, w, policy, ops, crc) ->
      pin ~cfg:(Sim_config.make ()) label policy (w ()) ~ops ~crc)
    [
      ("fig3", (fun () -> Workload.fig3_handoff ()), Cpu.Def1, 20, 2727082917);
      ("fig3", (fun () -> Workload.fig3_handoff ()), Cpu.Def2, 7, 2710773215);
      ("barrier", (fun () -> Workload.spin_barrier ()), Cpu.Def1, 49, 4233616960);
      ("barrier", (fun () -> Workload.spin_barrier ()), Cpu.Def2, 48, 1130126944);
      ("locks", (fun () -> Workload.critical_sections ()), Cpu.Def1, 314, 1655503936);
      ("locks", (fun () -> Workload.critical_sections ()), Cpu.Def2, 618, 4027265882);
      ("pipeline", (fun () -> Workload.pipeline ()), Cpu.Def1, 500, 65397690);
      ("pipeline", (fun () -> Workload.pipeline ()), Cpu.Def2, 452, 3648476557);
      ("ticket", (fun () -> Workload.ticket_lock ()), Cpu.Def1, 260, 3667286452);
      ("ticket", (fun () -> Workload.ticket_lock ()), Cpu.Def2, 110, 3872326039);
      ("sense-barrier", (fun () -> Workload.sense_barrier ()), Cpu.Def1, 170, 195438918);
      ("sense-barrier", (fun () -> Workload.sense_barrier ()), Cpu.Def2, 157, 89224628);
    ];
  (* The four 64-core legs of the simulator benchmark, sanitizer off. *)
  List.iter
    (fun (label, w, policy, ops, crc) ->
      pin ~cfg:(Sim_config.make ~sanitize:false ()) label policy w ~ops ~crc)
    [
      ("locks64", Workload.critical_sections ~nprocs:64 (), Cpu.Def1, 31334, 555034785);
      ("locks64", Workload.critical_sections ~nprocs:64 (), Cpu.Def2_rs, 130848, 3071453987);
      ("ticket64", Workload.ticket_lock ~nprocs:64 (), Cpu.Def1, 75849, 445355589);
      ("ticket64", Workload.ticket_lock ~nprocs:64 (), Cpu.Def2_rs, 55625, 402982917);
    ]

(* --- Workload argument validation -------------------------------------------- *)

let test_workload_validation () =
  let rejects msg f =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  rejects "Workload.ticket_lock: nprocs must be in [1, 1024] (got 0)"
    (fun () -> Workload.ticket_lock ~nprocs:0 ());
  rejects
    (Printf.sprintf
       "Workload.sense_barrier: nprocs must be in [1, 1024] (got %d)"
       (Workload.max_procs + 1))
    (fun () -> Workload.sense_barrier ~nprocs:(Workload.max_procs + 1) ());
  rejects "Workload.sense_barrier: rounds must be in [1, 4611686018427387903] (got 0)"
    (fun () -> Workload.sense_barrier ~rounds:0 ());
  rejects
    "Workload.critical_sections: work_in must be in [0, 4611686018427387903] (got -1)"
    (fun () -> Workload.critical_sections ~work_in:(-1) ());
  rejects "Workload.pipeline: batch must be in [1, 4611686018427387903] (got 0)"
    (fun () -> Workload.pipeline ~batch:0 ());
  rejects
    "Workload.fig3_handoff: work_before must be in [0, 4611686018427387903] (got -3)"
    (fun () -> Workload.fig3_handoff ~work_before:(-3) ());
  (* In-range widths construct fine. *)
  check "wide barrier accepted" true
    (Workload.num_threads (Workload.spin_barrier ~nprocs:64 ()) = 64)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "sim",
    [
      t "engine time order" test_engine_order;
      t "engine fifo ties" test_engine_ties_fifo;
      t "engine livelock limit" test_engine_limit;
      t "read miss latency" test_read_miss_latency;
      t "read hit after miss" test_read_hit_after_miss;
      t "write invalidates sharer" test_write_invalidates_sharer;
      t "counter tracks global performance" test_counter_tracks_gp;
      t "rmw applies function" test_rmw_applies_function;
      t "exclusive handoff" test_exclusive_handoff;
      t "reservation defers foreign sync" test_reservation_defers_foreign_request;
      t "determinism" test_determinism;
      t "handoff correct under all policies" test_handoff_correct_under_all;
      t "figure 3 stall shape" test_fig3_stall_shape;
      t "barrier spin serialization" test_barrier_serialization;
      t "critical sections ordering" test_critical_sections_ordering;
      t "pipeline delivers data" test_pipeline_delivers_data;
      t "finals settle" test_finals_settle;
      t "def2 satisfies Section 5.1 conditions" test_def2_satisfies_conditions;
      t "all policies clean on spinless workloads" test_all_policies_clean_on_spinless_workloads;
      t "no-reserve ablation violates condition 5" test_noresv_violates_condition5;
      t "def2 correct under network reordering" test_def2_correct_under_jitter;
      t "trace times ordered" test_trace_times_ordered;
      t "ticket lock FIFO" test_ticket_lock_fifo;
      t "sense barrier serialization" test_sense_barrier_serialization;
      t "new workloads meet def2 conditions" test_new_workloads_def2_conditions;
      t "spin parking is timing-invisible" test_parking_invisible;
      t "spin parking invisible under faults" test_parking_invisible_under_faults;
      t "spin parking sheds events at scale" test_parking_saves_events;
      t "scaled workloads survive fault campaign" test_scaled_workloads_under_faults;
      t "workload argument validation" test_workload_validation;
      t "operation traces match pinned CRCs" test_trace_pins;
    ] )
