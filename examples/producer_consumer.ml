(* Producer/consumer on the timing simulator: Figure 3, narrated.

     dune exec examples/producer_consumer.exe

   P0 writes a datum, releases a lock, and keeps working; P1 acquires the
   lock and reads the datum.  Under Definition-1 hardware, P0 stalls at the
   release until the datum's write is globally performed.  Under the
   paper's implementation, P0 commits the release immediately, the lock
   line is reserved, and the stall moves to P1's acquire — which had to
   wait anyway.  Both are correct; only the new implementation lets the
   producer run ahead. *)

let () =
  let w = Workload.fig3_handoff () in
  Fmt.pr "Figure 3 handoff (net latency %d cycles):@.@."
    (Sim_config.default.Sim_config.net);
  List.iter
    (fun policy ->
      let r = Sim_run.run policy w in
      let p0 = r.Sim_run.proc_stats.(0) in
      let p1 = r.Sim_run.proc_stats.(1) in
      Fmt.pr "%-8s producer done at %4d (sync stalls %3d)   consumer done at %4d   datum read: %s@."
        (Cpu.policy_name policy) p0.Cpu.finish
        (p0.Cpu.stall_pre_sync + p0.Cpu.stall_sync_gp)
        p1.Cpu.finish
        (match Sim_run.observation r "x" with
        | Some v -> string_of_int v
        | None -> "?"))
    Cpu.all_policies;

  Fmt.pr "@.Sweeping the network latency (producer finish time):@.@.";
  Fmt.pr "%8s %8s %8s %8s@." "net" "sc" "def1" "def2";
  List.iter
    (fun net ->
      let cfg = Sim_config.make ~net () in
      let run p = (Sim_run.run ~cfg p w).Sim_run.proc_stats.(0).Cpu.finish in
      Fmt.pr "%8d %8d %8d %8d@." net (run Cpu.Sc) (run Cpu.Def1) (run Cpu.Def2))
    [ 5; 10; 20; 40; 80 ];

  Fmt.pr
    "@.The def2 column is flat in the producer's sync stalls: committing@.\
     the Unset never waits for the datum's invalidations, whatever the@.\
     network costs.  Definition-1 hardware pays the full round trip.@.";

  Fmt.pr "@.Timelines (generation-to-commit spans; S = sync commit):@.@.";
  List.iter
    (fun policy ->
      let r = Sim_run.run policy w in
      Fmt.pr "%s:@.%a@." (Cpu.policy_name policy) (Sim_trace.pp_timeline ~width:72)
        (Sim_trace.events r.Sim_run.trace))
    [ Cpu.Def1; Cpu.Def2 ]
