(* Processor models: interpret a workload thread on top of the coherence
   protocol under one of four issue policies.

   - [Sc]: every access (data or sync) is globally performed before the
     next issues — Lamport-conservative hardware.
   - [Def1]: Definition-1 weak ordering.  Data reads block; data writes
     overlap.  A synchronization operation waits for the counter to read
     zero before issuing (condition 2) and is globally performed before
     anything later issues (condition 3).
   - [Def2]: the paper's Section 5.3 implementation.  A synchronization
     operation only waits to *commit* (procure the line and modify it);
     if the counter is positive at commit, the line is reserved, shifting
     the stall to the *next* processor that synchronizes on the location.
   - [Def2_rs]: [Def2] plus the Section 6 refinement — read-only sync
     operations are ordinary coherent reads (cacheable shared) and place no
     reservation, so sync-read spinning is not serialized. *)

type policy = Sc | Def1 | Def2 | Def2_rs | Def2_noresv

let policy_name = function
  | Sc -> "sc"
  | Def1 -> "def1"
  | Def2 -> "def2"
  | Def2_rs -> "def2-rs"
  | Def2_noresv -> "def2-noresv"

let all_policies = [ Sc; Def1; Def2; Def2_rs ]

(* [Def2_noresv] is the deliberately broken ablation: the Section 5.3
   implementation *without* reserve bits.  It violates condition 5 and the
   trace checker (and the consumer's stale reads) catch it; it is excluded
   from [all_policies]. *)
let ablation_policies = [ Def2_noresv ]

type obs = {
  o_proc : int;
  o_tag : string;
  o_loc : string;
  o_value : int;
  o_time : int;
}

(* Stall-cause tags used by the {!Obs.Stall} attribution table.  Shared
   constants so the bench, the CLI and the tests agree on spelling. *)
let cause_counter = Proto.cause_name Proto.Counter_nonzero
let cause_gp = Proto.cause_name Proto.Gp_wait
let cause_acquire = Proto.cause_name Proto.Acquire
let cause_read = Proto.cause_name Proto.Read_miss

type proc_stats = {
  mutable finish : int;  (** cycle at which the thread's last op completed *)
  mutable drained : int;  (** cycle at which its counter last read zero *)
  mutable stall_pre_sync : int;
      (** waiting for the counter before issuing a sync (Def1 cond. 2) *)
  mutable stall_sync_gp : int;
      (** waiting for a sync to be globally performed (Def1 cond. 3 / SC) *)
  mutable stall_acquire : int;
      (** waiting for a sync to commit: line acquisition, including remote
          reservations (Def2 cond. 5 shifts stalls here) *)
  mutable stall_read : int;  (** read-miss latency *)
  mutable spin_iters : int;
  mutable lock_retries : int;
}

let fresh_stats () =
  {
    finish = 0;
    drained = 0;
    stall_pre_sync = 0;
    stall_sync_gp = 0;
    stall_acquire = 0;
    stall_read = 0;
    spin_iters = 0;
    lock_retries = 0;
  }

type ctx = {
  cfg : Sim_config.t;
  eng : Engine.t;
  proto : Proto.t;
  policy : policy;
  stats : proc_stats array;
  mutable observations : obs list;
  trace : Sim_trace.log;
  obs : Obs.t;
}

(* Emit the op-lifecycle span once the policy releases the processor.
   [t0] is the generation time; the cause tag names the dominant reason
   the processor was held (or [""] for an unstalled op). *)
let op_span ctx proc ~name ~line ~t0 ~cause =
  Obs.span ctx.obs ~cat:"op" ~name ~tid:proc ~ts:t0
    ~dur:(Engine.now ctx.eng - t0)
    ~loc:(Proto.line_name ctx.proto line)
    ~cause

let stall ctx proc ~cause ~line ~cycles =
  Proto.stall ctx.proto ~proc ~cause ~line ~cycles

(* Record an operation in the trace at its generation point; commit and
   globally-performed times are filled in by the protocol callbacks,
   through the returned row. *)
let record ctx proc ~sync ~reads ~writes line =
  Sim_trace.record ctx.trace ~proc ~sync ~reads ~writes ~line
    ~gen:(Engine.now ctx.eng)

let commit_now ctx row = Sim_trace.set_commit ctx.trace row (Engine.now ctx.eng)
let gp_now ctx row () = Sim_trace.set_gp ctx.trace row (Engine.now ctx.eng)

let observe ctx proc tag line value =
  ctx.observations <-
    {
      o_proc = proc;
      o_tag = tag;
      o_loc = Proto.line_name ctx.proto line;
      o_value = value;
      o_time = Engine.now ctx.eng;
    }
    :: ctx.observations

(* --- policy-specific wrappers -------------------------------------------- *)

let data_read ctx proc line k =
  let t0 = Engine.now ctx.eng in
  let row = record ctx proc ~sync:false ~reads:true ~writes:false line in
  Proto.read ctx.proto ~proc ~line ~on_gp:(gp_now ctx row) ~k:(fun v ->
      commit_now ctx row;
      ctx.stats.(proc).stall_read <-
        ctx.stats.(proc).stall_read + (Engine.now ctx.eng - t0);
      let missed =
        Engine.now ctx.eng - t0 - ctx.cfg.Sim_config.cache_hit
      in
      stall ctx proc ~cause:Proto.Read_miss ~line ~cycles:missed;
      op_span ctx proc ~name:"R" ~line ~t0
        ~cause:(if missed > 0 then cause_read else "");
      k v)

(* Data write: SC waits for global performance; the weak policies move on
   as soon as the write is handed to the memory system. *)
let data_write ctx proc line value k =
  let row = record ctx proc ~sync:false ~reads:false ~writes:true line in
  let on_commit _ = commit_now ctx row in
  let on_gp = gp_now ctx row in
  match ctx.policy with
  | Sc ->
      let t0 = Engine.now ctx.eng in
      Proto.modify ctx.proto ~proc ~line ~f:(fun _ -> value) ~on_gp
        ~on_commit:(fun old ->
          on_commit old;
          Proto.when_counter_zero ctx.proto proc (fun () ->
              let waited = Engine.now ctx.eng - t0 in
              ctx.stats.(proc).stall_sync_gp <-
                ctx.stats.(proc).stall_sync_gp + waited;
              stall ctx proc ~cause:Proto.Gp_wait ~line ~cycles:waited;
              op_span ctx proc ~name:"W" ~line ~t0
                ~cause:(if waited > 0 then cause_gp else "");
              k ()))
  | Def1 | Def2 | Def2_rs | Def2_noresv ->
      let t0 = Engine.now ctx.eng in
      Proto.modify ctx.proto ~proc ~line ~f:(fun _ -> value) ~on_gp ~on_commit;
      Engine.schedule ctx.eng ~delay:1 (fun () ->
          op_span ctx proc ~name:"W" ~line ~t0 ~cause:"";
          k ())

(* A synchronization operation that acquires the line exclusive (sync
   write, TAS, FADD — and, for Def2 base, sync reads too).  [reads] and
   [writes] record the *architectural* classification for the trace.
   [k old] runs when the policy lets the processor continue. *)
let sync_modify ctx proc line ~reads ~writes f k =
  let st = ctx.stats.(proc) in
  let row = record ctx proc ~sync:true ~reads ~writes line in
  let on_gp = gp_now ctx row in
  let commit () = commit_now ctx row in
  let name =
    if reads && writes then "Srmw" else if writes then "Sw" else "Sr"
  in
  match ctx.policy with
  | Sc ->
      let t0 = Engine.now ctx.eng in
      Proto.modify ctx.proto ~proc ~line ~f ~on_gp ~on_commit:(fun old ->
          commit ();
          Proto.when_counter_zero ctx.proto proc (fun () ->
              let waited = Engine.now ctx.eng - t0 in
              st.stall_sync_gp <- st.stall_sync_gp + waited;
              stall ctx proc ~cause:Proto.Gp_wait ~line ~cycles:waited;
              op_span ctx proc ~name ~line ~t0 ~cause:cause_gp;
              k old))
  | Def1 ->
      let t0 = Engine.now ctx.eng in
      Proto.when_counter_zero ctx.proto proc (fun () ->
          let drained = Engine.now ctx.eng - t0 in
          st.stall_pre_sync <- st.stall_pre_sync + drained;
          stall ctx proc ~cause:Proto.Counter_nonzero ~line ~cycles:drained;
          let t1 = Engine.now ctx.eng in
          Proto.modify ctx.proto ~proc ~line ~f ~on_gp ~on_commit:(fun old ->
              commit ();
              Proto.when_counter_zero ctx.proto proc (fun () ->
                  let waited = Engine.now ctx.eng - t1 in
                  st.stall_sync_gp <- st.stall_sync_gp + waited;
                  stall ctx proc ~cause:Proto.Gp_wait ~line ~cycles:waited;
                  op_span ctx proc ~name ~line ~t0
                    ~cause:(if drained > 0 then cause_counter else cause_gp);
                  k old)))
  | Def2 | Def2_rs | Def2_noresv ->
      let t0 = Engine.now ctx.eng in
      Proto.modify ctx.proto ~proc ~line ~f ~on_gp ~on_commit:(fun old ->
          commit ();
          let waited = Engine.now ctx.eng - t0 in
          st.stall_acquire <- st.stall_acquire + waited;
          stall ctx proc ~cause:Proto.Acquire ~line ~cycles:waited;
          op_span ctx proc ~name ~line ~t0
            ~cause:(if waited > 0 then cause_acquire else "");
          if ctx.policy <> Def2_noresv then
            Proto.reserve_if_outstanding ctx.proto ~proc ~line;
          k old)

(* A read-only synchronization operation. *)
let sync_read ctx proc line k =
  let st = ctx.stats.(proc) in
  let plain_read stall_field =
    let t0 = Engine.now ctx.eng in
    let row = record ctx proc ~sync:true ~reads:true ~writes:false line in
    Proto.read ctx.proto ~proc ~line ~on_gp:(gp_now ctx row) ~k:(fun v ->
        commit_now ctx row;
        let stalled =
          max 0 (Engine.now ctx.eng - t0 - ctx.cfg.Sim_config.cache_hit)
        in
        let cause =
          match stall_field with
          | `Gp ->
              st.stall_sync_gp <- st.stall_sync_gp + stalled;
              Proto.Gp_wait
          | `Acquire ->
              st.stall_acquire <- st.stall_acquire + stalled;
              Proto.Acquire
        in
        stall ctx proc ~cause ~line ~cycles:stalled;
        op_span ctx proc ~name:"Sr" ~line ~t0
          ~cause:(if stalled > 0 then Proto.cause_name cause else "");
        k v)
  in
  match ctx.policy with
  | Sc -> plain_read `Gp
  | Def1 ->
      let t0 = Engine.now ctx.eng in
      Proto.when_counter_zero ctx.proto proc (fun () ->
          let drained = Engine.now ctx.eng - t0 in
          st.stall_pre_sync <- st.stall_pre_sync + drained;
          stall ctx proc ~cause:Proto.Counter_nonzero ~line ~cycles:drained;
          plain_read `Gp)
  | Def2 | Def2_noresv ->
      (* Base implementation: all sync operations are treated as writes by
         the coherence protocol — even a Test acquires the line exclusive
         and is serialized (the Section 6 performance complaint). *)
      sync_modify ctx proc line ~reads:true ~writes:false (fun v -> v) k
  | Def2_rs ->
      (* Refinement: a read-only sync is a coherent read; it honours
         reservations at the owner (acquire side) but places none. *)
      plain_read `Acquire

(* --- the interpreter -------------------------------------------------------- *)

let spin_delay ctx k =
  Engine.schedule ctx.eng ~delay:ctx.cfg.Sim_config.spin_interval k

(* --- spin parking ------------------------------------------------------------

   A processor spinning on a cached line runs the same deterministic
   iteration over and over: a cache hit on a stale value, [cache_hit]
   cycles of latency, [spin_interval] cycles of delay.  Nothing it does is
   visible to anyone else (hits send no messages, touch no directory
   state), and nothing can change what it observes except a foreign
   request invalidating or downgrading its copy — the value of a valid
   line only changes through the spinner's own miss refill.  So instead of
   burning one engine event per iteration per core, the processor *parks*:
   it registers a {!Proto.watch_line} wakeup and stops scheduling.  When
   the wakeup fires (or a keepalive bounds the backlog), the skipped
   iterations' bookkeeping — trace events, op spans, stall attribution,
   statistics — is replayed from the closed-form per-policy iteration
   profile, so every observable artifact is identical to the unparked run
   (gated by the golden timing fingerprints and a park-on/off differential
   test).

   Eligibility: the next iteration must be a guaranteed pure hit — line in
   S/M for plain-read spins, M for exclusive-acquiring spins (Def2-base
   sync spins, lock retries), no pending global-perform on the line, and
   the outstanding counter at zero (so Def1's pre-sync wait passes
   immediately and Def2's re-reservation is a no-op; a spinner makes no
   accesses, so the counter stays zero while parked).

   The wake boundary: an iteration issuing exactly at the wake cycle [tw]
   read the stale value iff its engine event was created before the
   delivery event that mutated the line — i.e. iff [tw - spin_interval <
   Engine.running_since]; on a creation-cycle tie the delivery is taken
   first.  Iterations strictly before [tw] are always stale hits. *)

type spin_kind = Spin_data | Spin_sync | Lock_retry

(* One skipped iteration's bookkeeping, issued at [t]: exactly what the
   live hit path records, with the clock terms evaluated in closed form
   ([Engine.now] at issue is [t]; the check runs at [t + cache_hit]). *)
let replay_iter ctx proc line kind ~t =
  let ch = ctx.cfg.Sim_config.cache_hit in
  let st = ctx.stats.(proc) in
  let record_at ~sync ~reads ~writes =
    let row =
      Sim_trace.record ctx.trace ~proc ~sync ~reads ~writes ~line ~gen:t
    in
    Sim_trace.set_commit ctx.trace row (t + ch);
    Sim_trace.set_gp ctx.trace row (t + ch)
  in
  let span name cause =
    Obs.span ctx.obs ~cat:"op" ~name ~tid:proc ~ts:t ~dur:ch
      ~loc:(Proto.line_name ctx.proto line)
      ~cause
  in
  match (kind, ctx.policy) with
  | Spin_data, _ ->
      (* data_read: stall_read grows by the full latency even on a hit;
         the miss residue is zero, so no stall-table row and no cause. *)
      record_at ~sync:false ~reads:true ~writes:false;
      st.stall_read <- st.stall_read + ch;
      span "R" "";
      st.spin_iters <- st.spin_iters + 1
  | Spin_sync, (Sc | Def1 | Def2_rs) ->
      (* plain sync read, hit: zero stalled cycles under all three. *)
      record_at ~sync:true ~reads:true ~writes:false;
      span "Sr" "";
      st.spin_iters <- st.spin_iters + 1
  | Spin_sync, (Def2 | Def2_noresv) ->
      (* base Def2 treats the sync read as an exclusive acquire: the
         cache-hit commit latency is charged as acquire stall. *)
      record_at ~sync:true ~reads:true ~writes:false;
      st.stall_acquire <- st.stall_acquire + ch;
      stall ctx proc ~cause:Proto.Acquire ~line ~cycles:ch;
      span "Sr" (if ch > 0 then cause_acquire else "");
      st.spin_iters <- st.spin_iters + 1
  | Lock_retry, (Def2 | Def2_rs | Def2_noresv) ->
      record_at ~sync:true ~reads:true ~writes:true;
      st.stall_acquire <- st.stall_acquire + ch;
      stall ctx proc ~cause:Proto.Acquire ~line ~cycles:ch;
      span "Srmw" (if ch > 0 then cause_acquire else "");
      st.lock_retries <- st.lock_retries + 1
  | Lock_retry, (Sc | Def1) ->
      (* both charge the commit-to-continue wait as sync-gp stall. *)
      record_at ~sync:true ~reads:true ~writes:true;
      st.stall_sync_gp <- st.stall_sync_gp + ch;
      stall ctx proc ~cause:Proto.Gp_wait ~line ~cycles:ch;
      span "Srmw" cause_gp;
      st.lock_retries <- st.lock_retries + 1

let park_eligible ctx proc line kind =
  let cfg = ctx.cfg in
  cfg.Sim_config.park_spins
  && cfg.Sim_config.cache_hit + cfg.Sim_config.spin_interval > 0
  && Proto.counter ctx.proto proc = 0
  && (not (Proto.line_gp_pending ctx.proto proc line))
  &&
  match Proto.line_state ctx.proto proc line with
  | Proto.M -> true
  | Proto.S -> (
      match kind with
      | Spin_data -> true
      | Spin_sync -> (
          match ctx.policy with
          | Sc | Def1 | Def2_rs -> true
          | Def2 | Def2_noresv -> false)
      | Lock_retry -> false)
  | Proto.I -> false

(* Park instead of scheduling the next iteration, when eligible; [resume]
   is the live iteration body (the spin loop's own function).  Runs at the
   point where the failed check would have called {!spin_delay}, so the
   next iteration issues [spin_interval] cycles from now. *)
let spin_or_park ctx proc line kind resume =
  if not (park_eligible ctx proc line kind) then spin_delay ctx resume
  else begin
    let si = ctx.cfg.Sim_config.spin_interval in
    let period = ctx.cfg.Sim_config.cache_hit + si in
    (* issue time of the next not-yet-replayed iteration *)
    let next = ref (Engine.now ctx.eng + si) in
    let awake = ref false in
    let replay () =
      replay_iter ctx proc line kind ~t:!next;
      next := !next + period
    in
    let ka = ref None in
    let wake () =
      if not !awake then begin
        awake := true;
        Proto.unwatch_line ctx.proto ~proc;
        (match !ka with Some h -> Engine.cancel h | None -> ());
        let tw = Engine.now ctx.eng in
        while !next < tw do
          replay ()
        done;
        (* The boundary iteration — one issuing exactly at the wake cycle.
           Under Def1 the sync paths bounce through a zero-delay
           counter-drain event, so the line-state check re-enters the queue
           at the wake cycle behind the already-scheduled invalidation
           delivery: always a miss.  The direct-check paths read the line
           inside the iteration event itself, which runs before the
           delivery iff it was scheduled on an earlier cycle than the
           delivery was (the delivery's cell is created when its network
           arrival executes — [running_since] inside the wake); ties go to
           the delivery. *)
        let boundary_hit =
          match (kind, ctx.policy) with
          | (Spin_sync | Lock_retry), Def1 -> false
          | _ -> tw - si < Engine.running_since ctx.eng
        in
        if !next = tw && boundary_hit then replay ();
        Engine.schedule ctx.eng ~delay:(!next - tw) resume
      end
    in
    (* While parked the queue must not drain silently: a keepalive tick
       keeps simulated time advancing so a spin that is never woken (e.g.
       under the Skip_invalidation mutation) still trips the livelock
       watchdog, exactly like an unparked spin; it also bounds the replay
       backlog by draining it incrementally.  Cancelled on wake so a stale
       tick cannot outlive the real schedule and stretch [total_cycles]. *)
    let rec keepalive () =
      ka :=
        Some
          (Engine.schedule_cancellable ctx.eng
             ~delay:ctx.cfg.Sim_config.park_keepalive (fun () ->
               let now = Engine.now ctx.eng in
               while !next < now do
                 replay ()
               done;
               keepalive ()))
    in
    Proto.watch_line ctx.proto ~proc ~line wake;
    keepalive ()
  end

let rec exec_op ctx proc op k =
  let st = ctx.stats.(proc) in
  match op with
  | Workload.Work n -> Engine.schedule ctx.eng ~delay:n k
  | Workload.Read { loc; tag } ->
      data_read ctx proc loc (fun v ->
          (match tag with Some tg -> observe ctx proc tg loc v | None -> ());
          k ())
  | Workload.Write { loc; value } -> data_write ctx proc loc value k
  | Workload.Sync_read { loc; tag } ->
      sync_read ctx proc loc (fun v ->
          (match tag with Some tg -> observe ctx proc tg loc v | None -> ());
          k ())
  | Workload.Sync_write { loc; value } ->
      sync_modify ctx proc loc ~reads:false ~writes:true (fun _ -> value)
        (fun _ -> k ())
  | Workload.Tas { loc; tag } ->
      sync_modify ctx proc loc ~reads:true ~writes:true (fun _ -> 1) (fun old ->
          (match tag with Some tg -> observe ctx proc tg loc old | None -> ());
          k ())
  | Workload.Fadd { loc; n } ->
      sync_modify ctx proc loc ~reads:true ~writes:true (fun v -> v + n)
        (fun _ -> k ())
  | Workload.Spin_until { loc; expect; sync } ->
      let kind = if sync then Spin_sync else Spin_data in
      let rec iter () =
        st.spin_iters <- st.spin_iters + 1;
        let check v =
          if v = expect then k () else spin_or_park ctx proc loc kind iter
        in
        if sync then sync_read ctx proc loc check
        else data_read ctx proc loc check
      in
      iter ()
  | Workload.Lock { loc } ->
      let rec attempt () =
        sync_modify ctx proc loc ~reads:true ~writes:true
          (fun v -> if v = 0 then 1 else v)
          (fun old ->
            if old = 0 then k ()
            else begin
              st.lock_retries <- st.lock_retries + 1;
              spin_or_park ctx proc loc Lock_retry attempt
            end)
      in
      attempt ()
  | Workload.Unlock { loc } -> exec_op ctx proc (Workload.Sync_write { loc; value = 0 }) k

let rec exec_thread ctx proc ops k =
  match ops with
  | [] -> k ()
  | op :: rest -> exec_op ctx proc op (fun () -> exec_thread ctx proc rest k)
