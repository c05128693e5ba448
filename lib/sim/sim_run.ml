(* Top-level simulator runs: wire a workload to the protocol under a
   policy, drain the event queue, and report statistics, observations and
   final memory values.

   This layer is also the watchdog.  A run can fail to make progress two
   ways: the event queue drains while a thread is still blocked (deadlock —
   e.g. a directory line wedged by a lost acknowledgement), or simulated
   time blows through the limit while events keep firing (livelock).
   Either way [run] raises [Wedged] with a diagnostic dump instead of
   hanging or returning a silently-truncated result; [try_run] converts
   every failure mode into a [failure] value for fault-injection campaigns
   that must survive hundreds of runs. *)

exception Wedged of string

type result = {
  policy : Cpu.policy;
  workload : string;
  total_cycles : int;  (** completion of the last thread *)
  proc_stats : Cpu.proc_stats array;
  observations : Cpu.obs list;  (** in observation order *)
  finals : (string * int) list;  (** settled value of every location touched *)
  messages : int;
  invalidations : int;
  deferrals : int;
  nacks : int;
  txn_timeouts : int;
  retransmits : int;
  dups_suppressed : int;
  reorders : int;
  sanitizer_checks : int;
  events : int;
  trace : Sim_trace.log;  (** per-operation trace, in generation order *)
  stalls : Obs.Stall.t;  (** stalled cycles by (proc, cause, location) *)
}

type failure =
  | Deadlock of string  (** queue drained with blocked threads; dump *)
  | Livelock of string  (** event limit exceeded; dump *)
  | Invariant of string  (** sanitizer violation; diagnostic *)

let locations_of workload =
  let from_threads =
    List.concat_map (List.filter_map Workload.location) workload.Workload.threads
  in
  List.sort_uniq String.compare
    (List.map fst workload.Workload.init @ from_threads)

let run ?cfg ?(limit = 10_000_000) ?(obs = Obs.null) ?(on_wedged = ignore)
    policy workload =
  let nprocs = Workload.num_threads workload in
  let cfg =
    match cfg with
    | Some c -> { c with Sim_config.nprocs }
    | None -> Sim_config.make ~nprocs ()
  in
  let eng = Engine.create ~batch:cfg.Sim_config.batch_events () in
  (* Locations are interned once: from here on every operation, cache
     line, directory entry and channel is addressed by its line id. *)
  let names = Array.of_list (locations_of workload) in
  let proto = Proto.create ~init:workload.Workload.init ~obs ~names cfg eng in
  let sanitizer =
    if cfg.Sim_config.sanitize then Some (Sim_sanitizer.install proto)
    else None
  in
  let ctx =
    {
      Cpu.cfg;
      eng;
      proto;
      policy;
      stats = Array.init nprocs (fun _ -> Cpu.fresh_stats ());
      observations = [];
      trace = Sim_trace.create ~nprocs ~names;
      obs;
    }
  in
  let done_flags = Array.make nprocs false in
  List.iteri
    (fun p ops ->
      let ops = List.map (Workload.map_loc (Proto.line_id proto)) ops in
      Engine.schedule eng ~delay:0 (fun () ->
          Cpu.exec_thread ctx p ops (fun () ->
              ctx.Cpu.stats.(p).Cpu.finish <- Engine.now eng;
              Proto.when_counter_zero proto p (fun () ->
                  ctx.Cpu.stats.(p).Cpu.drained <- Engine.now eng;
                  done_flags.(p) <- true))))
    workload.Workload.threads;
  (* [wedge] funnels every no-progress abort through the watchdog hook:
     callers running checkpointed campaigns dump a final checkpoint there
     before the exception unwinds the run. *)
  let wedge diag =
    on_wedged diag;
    raise (Wedged diag)
  in
  (try Engine.run ~limit eng with
  | Engine.Out_of_time ->
      wedge
        (Printf.sprintf
           "livelock: simulated time exceeded the %d-cycle limit with \
            events still firing\n%s"
           limit (Proto.dump proto))
  | Proto.Stuck diag -> wedge ("stuck: " ^ diag));
  (* The no-progress check: the event queue drained, so nothing can ever
     run again — any thread still blocked is deadlocked. *)
  if not (Array.for_all Fun.id done_flags) then begin
    let blocked =
      Array.to_seq done_flags |> Seq.mapi (fun p d -> (p, d))
      |> Seq.filter_map (fun (p, d) -> if d then None else Some (string_of_int p))
      |> List.of_seq |> String.concat ", "
    in
    wedge
      (Printf.sprintf
         "deadlock: event queue drained but thread(s) P%s never \
          completed/drained\n%s"
         blocked (Proto.dump proto))
  end;
  (* One final sweep at quiescence: with everything drained every line is
     quiescent, so the full directory/cache agreement check applies. *)
  Option.iter Sim_sanitizer.check sanitizer;
  let total_cycles =
    Array.fold_left (fun m s -> max m s.Cpu.finish) 0 ctx.Cpu.stats
  in
  let stats = Proto.stats proto in
  let nstats = Net.stats (Proto.net proto) in
  {
    policy;
    workload = workload.Workload.name;
    total_cycles;
    proc_stats = ctx.Cpu.stats;
    observations = List.rev ctx.Cpu.observations;
    finals =
      Array.to_list
        (Array.mapi (fun line loc -> (loc, Proto.settled_value proto line)) names);
    messages = stats.Proto.messages;
    invalidations = stats.Proto.invalidations;
    deferrals = stats.Proto.deferrals;
    nacks = stats.Proto.nacks;
    txn_timeouts = stats.Proto.txn_timeouts;
    retransmits = nstats.Net.retransmits;
    dups_suppressed = nstats.Net.dups_suppressed;
    reorders = nstats.Net.reorders;
    sanitizer_checks =
      (match sanitizer with Some s -> Sim_sanitizer.checks s | None -> 0);
    events = Engine.executed eng;
    trace = ctx.Cpu.trace;
    stalls = Proto.stall_table proto;
  }

let try_run ?cfg ?limit ?obs ?on_wedged policy workload =
  match run ?cfg ?limit ?obs ?on_wedged policy workload with
  | r -> Ok r
  | exception Wedged d ->
      if String.length d >= 8 && String.sub d 0 8 = "livelock" then
        Error (Livelock d)
      else Error (Deadlock d)
  | exception Sim_sanitizer.Violation d -> Error (Invariant d)
  | exception Proto.Stuck d -> Error (Deadlock d)

let pp_failure ppf = function
  | Deadlock d -> Fmt.pf ppf "deadlock:@,%s" d
  | Livelock d -> Fmt.pf ppf "livelock:@,%s" d
  | Invariant d -> Fmt.pf ppf "invariant violation:@,%s" d

let failure_kind = function
  | Deadlock _ -> "deadlock"
  | Livelock _ -> "livelock"
  | Invariant _ -> "invariant"

(* The timing-invisibility gate artifact: everything an optimization must
   leave untouched, in one canonical string.  The normalized Chrome trace
   (total-sorted, so same-cycle recording order is invisible), the stall
   table (canonically sorted rows), the settled memory image and the total
   cycle count.  Engine event counts are deliberately excluded — they are
   the engine's cost metric and legitimately change under batching. *)
let golden_artifact ~obs r =
  let buf = Buffer.create 4096 in
  Obs.Chrome.to_buffer ~normalize:true buf (Obs.events obs);
  Buffer.add_string buf "\n=== stalls ===\n";
  Buffer.add_string buf (Fmt.str "%a" Obs.Stall.pp r.stalls);
  Buffer.add_string buf "\n=== finals ===\n";
  List.iter
    (fun (loc, v) -> Buffer.add_string buf (Printf.sprintf "%s=%d\n" loc v))
    r.finals;
  Buffer.add_string buf
    (Printf.sprintf "=== total_cycles ===\n%d\n" r.total_cycles);
  Buffer.contents buf

let observation result tag =
  List.find_opt (fun o -> String.equal o.Cpu.o_tag tag) result.observations
  |> Option.map (fun o -> o.Cpu.o_value)

let final result loc = List.assoc_opt loc result.finals

let pp_proc_stats ppf (p, s) =
  Fmt.pf ppf
    "P%d: finish=%d drained=%d pre-sync=%d sync-gp=%d acquire=%d read=%d \
     spins=%d retries=%d"
    p s.Cpu.finish s.Cpu.drained s.Cpu.stall_pre_sync s.Cpu.stall_sync_gp
    s.Cpu.stall_acquire s.Cpu.stall_read s.Cpu.spin_iters s.Cpu.lock_retries

let pp ppf r =
  Fmt.pf ppf "@[<v>%s under %s: %d cycles, %d msgs, %d invals, %d deferrals@,%a@]"
    r.workload (Cpu.policy_name r.policy) r.total_cycles r.messages
    r.invalidations r.deferrals
    Fmt.(list ~sep:cut pp_proc_stats)
    (Array.to_list (Array.mapi (fun i s -> (i, s)) r.proc_stats))
