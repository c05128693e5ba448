(* The per-figure experiments of EXPERIMENTS.md.  Each function prints the
   rows/series the corresponding figure or claim rests on; the shape (who
   wins, who violates, where stalls land) is what reproduces the paper. *)

let corpus = List.map (fun e -> e.Litmus_classics.prog) Litmus_classics.all

let hr title =
  Fmt.pr "@.==== %s ====@.@." title

(* --- E1: Figure 1 ----------------------------------------------------------- *)

(* Figure 1's claim: the Dekker outcome (both processors see 0 and kill each
   other) is impossible under SC but possible on all four relaxed hardware
   configurations.  The bus configurations fail through write buffers
   (reads passing buffered writes); the network configurations fail through
   accesses completing out of order.  Caches do not restore order on their
   own — the same machines model the cached variants, because a coherence
   protocol constrains same-location orders only. *)
let fig1 () =
  hr "E1 / Figure 1: the sequential-consistency violation";
  let prog = Litmus_classics.dekker.Litmus_classics.prog in
  Fmt.pr "%a@.@." Prog.pp prog;
  let verdict m =
    match Machines.allows_exists m prog with
    | Some true -> "VIOLATION possible"
    | Some false -> "forbidden"
    | None -> "?"
  in
  Fmt.pr "%-44s %-9s %s@." "configuration" "machine" "both killed (r0=r1=0)?";
  List.iter
    (fun (config, m) -> Fmt.pr "%-44s %-9s %s@." config (Machines.name m) (verdict m))
    [
      ("sequentially consistent reference", Machines.sc);
      ("shared bus, no caches (write buffers)", Machines.wbuf);
      ("general network, no caches (reordering)", Machines.ooo);
      ("shared bus + coherent caches (write buffers)", Machines.wbuf);
      ("general network + coherent caches", Machines.ooo);
    ];
  Fmt.pr
    "@.Coherence alone does not forbid it either (axiomatic check): %s@."
    (if Option.get (Models.allows_exists Models.coherence_only prog) then
       "coherence-only model allows the violation"
     else "unexpectedly forbidden");
  Fmt.pr
    "Even the all-sync Dekker breaks on naive hardware (motivating visible \
     synchronization):@.";
  let sync_prog = Litmus_classics.dekker_sync.Litmus_classics.prog in
  List.iter
    (fun m ->
      Fmt.pr "  %-9s %s@." (Machines.name m)
        (match Machines.allows_exists m sync_prog with
        | Some true -> "still violated"
        | Some false -> "forbidden"
        | None -> "?"))
    [ Machines.wbuf; Machines.ooo; Machines.def1; Machines.def2 ];
  Fmt.pr
    "@.The software alternative (Section 2.1, Shasha & Snir): enforce the      delay set.@.Dekker needs %d delays; with fences inserted, even the      naive machines are SC:@.  wbuf appears SC: %b   ooo appears SC: %b@."
    (Delay_set.delay_count prog)
    (Machines.appears_sc Machines.wbuf (Delay_set.with_fences prog))
    (Machines.appears_sc Machines.ooo (Delay_set.with_fences prog))

(* --- E2: Figure 2 ----------------------------------------------------------- *)

let fig2 () =
  hr "E2 / Figure 2: executions for and against DRF0";
  let analyze prog expected =
    Fmt.pr "%a@.@." Prog.pp prog;
    let evts = Evts.of_prog prog in
    let races_in_some_trace = ref false in
    let traces = ref 0 in
    Sc.iter_traces prog (fun trace _ ->
        incr traces;
        if Drf.races_of_trace evts trace <> [] then races_in_some_trace := true);
    Fmt.pr "idealized executions examined: %d@." !traces;
    Fmt.pr "program-level verdict: %s (expected %s)@."
      (if Drf.obeys prog then "obeys DRF0" else "violates DRF0")
      expected;
    (match Drf.check prog with
    | Ok () -> ()
    | Error races ->
        let unique =
          List.sort_uniq
            (fun a b ->
              compare
                (a.Drf.e1.Event.id, a.Drf.e2.Event.id)
                (b.Drf.e1.Event.id, b.Drf.e2.Event.id))
            races
        in
        Fmt.pr "unordered conflicting accesses:@.";
        List.iter
          (fun r -> Fmt.pr "  %a vs %a@." Event.pp r.Drf.e1 Event.pp r.Drf.e2)
          unique);
    Fmt.pr "per-execution races found in some trace: %b@.@."
      !races_in_some_trace
  in
  analyze Litmus_classics.fig2a_execution "obeys (Figure 2a)";
  analyze Litmus_classics.fig2b_execution "violates (Figure 2b)"

(* --- E3: Figure 3 ----------------------------------------------------------- *)

let fig3 () =
  hr "E3 / Figure 3: where the implementations stall";
  let w = Workload.fig3_handoff () in
  Fmt.pr
    "P0: W(x); ...; Unset(s); ...    P1: TestAndSet(s); ...; R(x)@.\
     (the write of x takes a long time to perform globally)@.@.";
  Fmt.pr "%-8s %14s %14s %12s %12s %8s@." "policy" "P0 sync stall"
    "P0 finish" "P1 acquire" "P1 finish" "defer";
  List.iter
    (fun policy ->
      let r = Sim_run.run policy w in
      let p0 = r.Sim_run.proc_stats.(0) in
      let p1 = r.Sim_run.proc_stats.(1) in
      Fmt.pr "%-8s %14d %14d %12d %12d %8d@." (Cpu.policy_name policy)
        (p0.Cpu.stall_pre_sync + p0.Cpu.stall_sync_gp)
        p0.Cpu.finish
        (p1.Cpu.stall_acquire + p1.Cpu.stall_sync_gp + p1.Cpu.stall_pre_sync)
        p1.Cpu.finish r.Sim_run.deferrals)
    Cpu.all_policies;
  Fmt.pr
    "@.Paper's claim: \"Def. 1 stalls P0 ... Def. 2 w.r.t. DRF0 need never \
     stall P0 ... Both stall P1.\"@.\
     Above: def1 shows a positive P0 sync stall; def2 shows zero, finishes \
     P0 earlier,@.and shifts the wait to P1 via a reservation (defer > 0).@.";
  (* The same claim, read off the per-cause stall-attribution table the
     simulator keeps always on: def1 charges P0 ordering stalls at the
     Unset (draining its counter, then waiting for global performance);
     def2 charges P0 nothing there — the wait reappears on P1 as a
     reserve-bit deferral. *)
  Fmt.pr "@.Per-cause stall attribution (cycles, by processor/cause/location):@.";
  List.iter
    (fun policy ->
      let r = Sim_run.run policy w in
      Fmt.pr "@.%s:@.%a@." (Cpu.policy_name policy) Obs.Stall.pp
        r.Sim_run.stalls)
    [ Cpu.Def1; Cpu.Def2 ];
  let p0_ordering policy =
    let s = (Sim_run.run policy w).Sim_run.stalls in
    Obs.Stall.get s ~tid:0 ~cause:Cpu.cause_counter ~loc:"s"
    + Obs.Stall.get s ~tid:0 ~cause:Cpu.cause_gp ~loc:"s"
  in
  Fmt.pr "@.P0 stall cycles at Unset(s): def1=%d, def2=%d@."
    (p0_ordering Cpu.Def1) (p0_ordering Cpu.Def2);
  let correct =
    List.for_all
      (fun p -> Sim_run.observation (Sim_run.run p w) "x" = Some 1)
      Cpu.all_policies
  in
  Fmt.pr "consumer read the datum correctly under every policy: %b@." correct;
  (* The figure itself is a timing diagram; render ours.  '-' spans an
     operation from generation to commit, S marks a sync commit, '!' the
     point where its global performance catches up. *)
  Fmt.pr "@.Timelines (the figure, as measured):@.@.";
  List.iter
    (fun policy ->
      let r = Sim_run.run policy w in
      Fmt.pr "%s:@.%a@." (Cpu.policy_name policy)
        (Sim_trace.pp_timeline ~width:72)
        (Sim_trace.events r.Sim_run.trace))
    [ Cpu.Def1; Cpu.Def2 ]

(* --- E4: Section 6, Definition-1 hardware is weakly ordered ----------------- *)

let sec6_def1 () =
  hr "E4 / Section 6: Definition-1 hardware is weakly ordered by Definition 2";
  let report m model =
    let r = Weak_ordering.verify ~hw:(Weak_ordering.of_machine m) ~model corpus in
    Fmt.pr "  %-8s w.r.t. %-5s -> %s@." r.Weak_ordering.hardware
      r.Weak_ordering.model
      (if r.Weak_ordering.weakly_ordered then "weakly ordered"
       else
         Fmt.str "NOT weakly ordered (counterexample: %s)"
           (match Weak_ordering.counterexamples r with
           | v :: _ -> Prog.name v.Weak_ordering.program
           | [] -> "?"))
  in
  report Machines.def1 Weak_ordering.drf0;
  report Machines.def2 Weak_ordering.drf0;
  report Machines.wbuf Weak_ordering.drf0;
  report Machines.ooo Weak_ordering.drf0;
  report Machines.def2_rs Weak_ordering.drf0;
  report Machines.def2_rs Weak_ordering.drf1;
  Fmt.pr "@.and both def1 and def2 are genuinely weaker than SC: %b / %b@."
    (Weak_ordering.weaker_than_sc ~hw:(Weak_ordering.of_machine Machines.def1) corpus)
    (Weak_ordering.weaker_than_sc ~hw:(Weak_ordering.of_machine Machines.def2) corpus);
  Fmt.pr
    "@.The separating example (Section 6's barrier count spun on with data \
     reads):@.";
  let p = Litmus_classics.barrier_data_spin.Litmus_classics.prog in
  List.iter
    (fun m ->
      Fmt.pr "  %-8s %s@." (Machines.name m)
        (match Machines.allows_exists m p with
        | Some true -> "allows the stale read (not SC for this racy program)"
        | Some false -> "appears SC even though the program races"
        | None -> "?"))
    [ Machines.def1; Machines.def2 ]

(* --- E5: Section 6, serialization of read-only synchronization --------------- *)

let sec6_spin () =
  hr "E5 / Section 6: sync-read spinning serialized by the base implementation";
  Fmt.pr
    "Barrier: each processor FADDs a counter (sync) then spins until it \
     reaches N.@.@.";
  Fmt.pr "%7s | %24s | %24s@." "" "sync-read spin (cycles)" "messages";
  Fmt.pr "%7s | %7s %7s %8s | %7s %7s %8s@." "nprocs" "def1" "def2" "def2-rs"
    "def1" "def2" "def2-rs";
  List.iter
    (fun n ->
      let w = Workload.spin_barrier ~nprocs:n ~sync_spin:true () in
      let r p = Sim_run.run p w in
      let d1 = r Cpu.Def1 and d2 = r Cpu.Def2 and drs = r Cpu.Def2_rs in
      Fmt.pr "%7d | %7d %7d %8d | %7d %7d %8d@." n d1.Sim_run.total_cycles
        d2.Sim_run.total_cycles drs.Sim_run.total_cycles d1.Sim_run.messages
        d2.Sim_run.messages drs.Sim_run.messages)
    [ 2; 3; 4; 6; 8 ];
  Fmt.pr
    "@.Base def2 treats every Test as a write: exclusive ping-pong grows \
     with nprocs.@.The Section 6 refinement (def2-rs) spins on shared \
     copies, like def1.@.@.";
  Fmt.pr "For contrast, data-read spinning (the racy idiom) levels them:@.";
  List.iter
    (fun n ->
      let w = Workload.spin_barrier ~nprocs:n ~sync_spin:false () in
      let r p = (Sim_run.run p w).Sim_run.total_cycles in
      Fmt.pr "  nprocs=%d: def1=%d def2=%d def2-rs=%d@." n (r Cpu.Def1)
        (r Cpu.Def2) (r Cpu.Def2_rs))
    [ 4; 8 ]

(* --- E6: the quantitative comparison the conclusions call for ---------------- *)

let sweep () =
  hr "E6 / future work: quantitative comparison across policies";
  Fmt.pr "Lock-based critical sections (4 procs, 4 rounds), varying network \
          latency:@.@.";
  Fmt.pr "%6s %8s %8s %8s %10s %18s@." "net" "sc" "def1" "def2" "def2-rs"
    "speedup def2/sc";
  List.iter
    (fun net ->
      let cfg = Sim_config.make ~net () in
      let w = Workload.critical_sections () in
      let r p = (Sim_run.run ~cfg p w).Sim_run.total_cycles in
      let sc = r Cpu.Sc and d1 = r Cpu.Def1 and d2 = r Cpu.Def2 in
      let drs = r Cpu.Def2_rs in
      Fmt.pr "%6d %8d %8d %8d %10d %17.2fx@." net sc d1 d2 drs
        (float_of_int sc /. float_of_int d2))
    [ 5; 10; 20; 40; 80 ];
  Fmt.pr "@.Pipeline handoffs (4 stages), varying network latency:@.@.";
  Fmt.pr "%6s %8s %8s %8s %10s@." "net" "sc" "def1" "def2" "def2-rs";
  List.iter
    (fun net ->
      let cfg = Sim_config.make ~net () in
      let w = Workload.pipeline () in
      let r p = (Sim_run.run ~cfg p w).Sim_run.total_cycles in
      Fmt.pr "%6d %8d %8d %8d %10d@." net (r Cpu.Sc) (r Cpu.Def1) (r Cpu.Def2)
        (r Cpu.Def2_rs))
    [ 5; 10; 20; 40; 80 ];
  Fmt.pr "@.Ticket lock and sense-reversing barrier (4 procs):@.@.";
  Fmt.pr "%-16s %8s %8s %8s %10s@." "workload" "sc" "def1" "def2" "def2-rs";
  List.iter
    (fun (name, w) ->
      let r p = (Sim_run.run p w).Sim_run.total_cycles in
      Fmt.pr "%-16s %8d %8d %8d %10d@." name (r Cpu.Sc) (r Cpu.Def1)
        (r Cpu.Def2) (r Cpu.Def2_rs))
    [
      ("ticket_lock", Workload.ticket_lock ());
      ("sense_barrier", Workload.sense_barrier ());
      ("sense_barrier(d)", Workload.sense_barrier ~sync_spin:false ());
    ];
  Fmt.pr "@.Critical sections, varying work outside the critical section@.\
          (more private work = more overlap for the weak policies):@.@.";
  Fmt.pr "%9s %8s %8s %8s@." "work_out" "sc" "def1" "def2";
  List.iter
    (fun work_out ->
      let w = Workload.critical_sections ~work_out () in
      let r p = (Sim_run.run p w).Sim_run.total_cycles in
      Fmt.pr "%9d %8d %8d %8d@." work_out (r Cpu.Sc) (r Cpu.Def1) (r Cpu.Def2))
    [ 0; 25; 50; 100; 200 ]

(* --- E7: Appendices A and B --------------------------------------------------- *)

let appendix () =
  hr "E7 / Appendices: Lemma 1 and the sufficiency of the Section 5.1 conditions";
  Fmt.pr
    "Lemma 1: on DRF0 programs, every read returns the hb-last write.  \
     Checked on@.every candidate execution the def2 axioms accept:@.@.";
  List.iter
    (fun e ->
      let p = e.Litmus_classics.prog in
      if e.Litmus_classics.drf0 then begin
        let cands = Models.candidates Models.def2 p in
        let ok = List.for_all Lemma1.holds cands in
        Fmt.pr "  %-20s %3d candidates: %s@." (Prog.name p)
          (List.length cands)
          (if ok then "lemma holds" else "LEMMA VIOLATED")
      end)
    Litmus_classics.all;
  Fmt.pr
    "@.Sufficiency (Appendix B), operationally: the def2 machine's outcomes \
     are SC@.outcomes on every DRF0 program, and within the axioms on every \
     program:@.@.";
  List.iter
    (fun e ->
      let p = e.Litmus_classics.prog in
      let within =
        Final.Set.subset
          (Machines.outcomes Machines.def2 p)
          (Models.outcomes Models.def2 p)
      in
      let appears =
        (not e.Litmus_classics.drf0) || Machines.appears_sc Machines.def2 p
      in
      Fmt.pr "  %-20s within-axioms=%b drf0-implies-sc=%b@." (Prog.name p)
        within appears)
    Litmus_classics.all;
  Fmt.pr
    "@.And on the timing simulator: the Section 5.1 conditions checked on per-operation@.traces of real runs (0 violations expected for def2; the no-reserve ablation@.must violate condition 5):@.@.";
  let workloads =
    [
      ("fig3", Workload.fig3_handoff ());
      ("locks", Workload.critical_sections ());
      ("barrier", Workload.spin_barrier ());
      ("pipeline", Workload.pipeline ());
    ]
  in
  List.iter
    (fun (name, w) ->
      let count policy =
        let r = Sim_run.run policy w in
        List.length (Sim_trace.check_all (Sim_trace.events r.Sim_run.trace))
      in
      Fmt.pr "  %-10s def2 violations=%d   def2-without-reserve violations=%d@."
        name (count Cpu.Def2) (count Cpu.Def2_noresv))
    workloads;
  let cfg = Sim_config.make ~net_jitter:30 () in
  let x policy =
    Sim_run.observation
      (Sim_run.run ~cfg policy (Workload.fig3_handoff ()))
      "x"
  in
  Fmt.pr
    "@.With network reordering (jitter 30), the missing reserve bit becomes observable:@.  consumer reads x = %s under def2, x = %s without reserve bits.@."
    (match x Cpu.Def2 with Some v -> string_of_int v | None -> "?")
    (match x Cpu.Def2_noresv with Some v -> string_of_int v | None -> "?")

(* --- ablation ------------------------------------------------------------------ *)

(* DESIGN.md's ablation: collapse commit into globally-performed (make the
   sync wait for the issuing processor's own pending writes — Definition 1's
   discipline) and the Figure 3 advantage disappears. *)
let ablate () =
  hr "Ablation: collapse commit into globally-performed";
  let w = Workload.fig3_handoff () in
  let p0_finish policy = (Sim_run.run policy w).Sim_run.proc_stats.(0).Cpu.finish in
  Fmt.pr
    "def2 separates a sync's commit from global performance; def1 is the@.\
     collapsed design.  Producer finish times:@.@.";
  Fmt.pr "  with the distinction (def2):    %d cycles@." (p0_finish Cpu.Def2);
  Fmt.pr "  collapsed (def1 discipline):    %d cycles@." (p0_finish Cpu.Def1);
  Fmt.pr "@.and at the model level, the distinction is what permits non-SC@.\
          behaviour on racy programs that def1 keeps SC:@.";
  let p = Litmus_classics.barrier_data_spin.Litmus_classics.prog in
  Fmt.pr "  barrier_data_spin stale read: def1=%b def2=%b@."
    (Option.get (Machines.allows_exists Machines.def1 p))
    (Option.get (Machines.allows_exists Machines.def2 p))

(* --- fault-injection degradation curve ----------------------------------------- *)

(* Performance degrades gracefully as the interconnect gets worse: scale the
   chaos profile's event rates from 0 to full strength and plot completion
   time and recovery traffic.  The protocol must absorb every intensity —
   zero wedged runs — with cost, not correctness, as the casualty. *)
let degrade () =
  hr "Degradation under interconnect faults (chaos profile, seeds 0-9)";
  let workloads =
    [
      ("fig3", fun () -> Workload.fig3_handoff ());
      ("locks", fun () -> Workload.critical_sections ());
      ("barrier", fun () -> Workload.spin_barrier ());
    ]
  in
  let intensities = [ 0; 125; 250; 500; 750; 1000 ] in
  let seeds = 10 in
  let wedged = ref 0 in
  List.iter
    (fun (name, mk) ->
      Fmt.pr "@.  %s (def2, mean over %d seeds):@." name seeds;
      Fmt.pr "    %9s %8s %12s %7s %7s %6s@." "intensity" "cycles" "retransmits"
        "nacks" "dups" "spins";
      List.iter
        (fun permille ->
          let profile = Fault.scale Fault.chaos ~permille in
          let cyc = ref 0
          and retr = ref 0
          and nacks = ref 0
          and dups = ref 0
          and spins = ref 0 in
          for seed = 0 to seeds - 1 do
            let cfg =
              Sim_config.make ~faults:profile ~fault_seed:seed ()
            in
            match Sim_run.try_run ~cfg Cpu.Def2 (mk ()) with
            | Error f ->
                incr wedged;
                Fmt.pr "    WEDGED at intensity %d seed %d: %s@." permille seed
                  (Sim_run.failure_kind f)
            | Ok r ->
                cyc := !cyc + r.Sim_run.total_cycles;
                retr := !retr + r.Sim_run.retransmits;
                nacks := !nacks + r.Sim_run.nacks;
                dups := !dups + r.Sim_run.dups_suppressed;
                spins :=
                  !spins
                  + Array.fold_left
                      (fun a s -> a + s.Cpu.spin_iters)
                      0 r.Sim_run.proc_stats
          done;
          Fmt.pr "    %9d %8d %12d %7d %7d %6d@." permille (!cyc / seeds)
            (!retr / seeds) (!nacks / seeds) (!dups / seeds) (!spins / seeds))
        intensities)
    workloads;
  Fmt.pr "@.  wedged runs across the whole sweep: %d (must be 0)@." !wedged

let all () =
  fig1 ();
  fig2 ();
  fig3 ();
  sec6_def1 ();
  sec6_spin ();
  sweep ();
  appendix ();
  ablate ();
  degrade ()
