(* Exhaustive exploration of an abstract machine.

   The engine computes the complete set of outcomes a machine allows for a
   program as the union of [M.final] over every reachable state — a
   reachability sweep with a transposition table of packed state keys
   (see {!Layout}), not a per-state memoized fold.  Two execution
   strategies share that shape:

   - sequential: an explicit-stack DFS with a single table; and
   - parallel ([~domains:n], n > 1): a frontier-based sweep over [n]
     domains with a sharded claim table and a shared overflow queue.

   Both honour the bound contract: [fuel] and the wall-clock/memory budget
   only cut branches, so a [Partial] result is always a sound subset of
   the complete outcome set — exploration never invents outcomes.  In the
   parallel engine the set of states cut depends on the schedule, but the
   subset property (and, when nothing is cut, equality with the sequential
   result) does not.

   Partial-order reduction.  When the machine declares an oracle
   ([M.por]), the engine prunes provably outcome-preserving transitions:

   - both engines fire the machine's *ample* transition alone where the
     oracle proves one exists (the persistent-set argument: the chosen
     transition commutes with everything other processors can do before
     it and occurs in every complete run, so reordering recovers every
     outcome);
   - the sequential engine additionally runs *sleep sets* (Godefroid's
     state-caching variant): a transition explored from some earlier
     branch of the search is not re-fired from sibling states it
     commutes into, and each visited state remembers the sleep set it
     was first expanded under so a later visit with a smaller sleep set
     re-fires exactly the newly awake transitions.  The parallel engine
     keeps to ample-only reduction — sleep sets depend on the visit
     order, which a parallel sweep does not fix, and the claimed-state
     set must stay schedule-independent.

   Every machine graph here is acyclic (issues consume program positions,
   drains consume buffer entries), finals are sinks, and persistent +
   sleep sets preserve all sinks, so the reduced sweep reaches the same
   outcome set; the differential suite pins this machine by machine.
   Reduction composes with the bound contract unchanged: a reduced
   [Partial] is still a sound subset.  Degraded Bloom mode disables
   reduction loudly — the approximate visited set cannot support the
   sleep-set revisit protocol, and a degraded run is already pinned
   [Partial].

   The resilience layer rides on three hooks:

   - every bound is checked *before* a state is claimed, so a stopped
     sweep leaves every unexpanded state in the frontier and the
     (frontier, transposition table, outcome accumulator) triple is a
     complete resume point;
   - that triple is periodically marshalled into a CRC-checked
     [Snapshot] frame and handed to the configured sink — and once more
     when a budget stops the sweep;
   - when the visited set crosses the memory budget, the sequential
     engine migrates it into a Bloom filter and keeps going: a
     false-positive "seen" can only prune, so the outcome set stays a
     sound subset, and the result is pinned [Partial] so degraded
     coverage is never reported exhaustive.  (The parallel engine drains
     at the budget instead — its sharded exact table cannot be swapped
     mid-sweep without a barrier.) *)

type 'a bounded = Complete of 'a | Partial of 'a

let bounded_value = function Complete v | Partial v -> v
let is_complete = function Complete _ -> true | Partial _ -> false

type stop_reason =
  | Fuel_exhausted
  | Deadline_exceeded
  | Memory_exhausted
  | Cancelled

let stop_reason_string = function
  | Fuel_exhausted -> "fuel"
  | Deadline_exceeded -> "deadline"
  | Memory_exhausted -> "memory"
  | Cancelled -> "cancel"

type stats = {
  states_expanded : int;
  domains_used : int;
  claimed : int;
  claimed_per_shard : int array;
  donations : int;
  table_buckets : int;
  max_probe : int;
  degraded_at : int option;
  por_enabled : bool;
  oracle_calls : int;
  ample_hits : int;
  suppressed : int;
  sym_group : int;
  sym_hits : int;
  spilled_runs : int;
  spilled_keys : int;
}

(* Telemetry for engines that do not run a sharded sweep (the SC
   interleaving enumerator): one "shard" holding every claimed state. *)
let basic_stats ?(por_enabled = false) ?(oracle_calls = 0) ?(ample_hits = 0)
    ?(suppressed = 0) ?(sym_group = 1) ?(sym_hits = 0) ~states_expanded
    ~domains_used () =
  {
    states_expanded;
    domains_used;
    claimed = states_expanded;
    claimed_per_shard = [| states_expanded |];
    donations = 0;
    table_buckets = 0;
    max_probe = 0;
    degraded_at = None;
    por_enabled;
    oracle_calls;
    ample_hits;
    suppressed;
    sym_group;
    sym_hits;
    spilled_runs = 0;
    spilled_keys = 0;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "%d state(s) expanded, %d claimed over %d shard(s), %d donation(s)"
    s.states_expanded s.claimed
    (Array.length s.claimed_per_shard)
    s.donations;
  if s.table_buckets > 0 then
    Format.fprintf ppf "; table: %d bucket(s), occupancy %.2f, max probe %d"
      s.table_buckets
      (float_of_int s.claimed /. float_of_int s.table_buckets)
      s.max_probe;
  if s.por_enabled then
    Format.fprintf ppf
      "; por: %d oracle call(s), %d ample hit(s), %d transition(s) suppressed"
      s.oracle_calls s.ample_hits s.suppressed;
  if s.sym_group > 1 then
    Format.fprintf ppf "; sym: group order %d, %d orbit hit(s)" s.sym_group
      s.sym_hits;
  if s.spilled_runs > 0 then
    Format.fprintf ppf "; spill: %d run(s), %d key(s) on disk" s.spilled_runs
      s.spilled_keys;
  match s.degraded_at with
  | Some n -> Format.fprintf ppf "; DEGRADED to Bloom visited set at %d" n
  | None -> ()

type run_result = {
  result : Final.Set.t bounded;
  stats : stats;
  stop : stop_reason option;
}

(* --- resilience configuration ---------------------------------------------- *)

let checkpoint_every_default = 1000

(* Hot-tier cap of the spill store, in keys: a flush is forced when the
   RAM tier reaches this many keys even without a memory budget, so a
   spilling sweep's resident set stays bounded by construction. *)
let spill_flush_default = 65_536

type rcfg = {
  budget : Budget.t option;
  checkpoint_every : int;
  snapshot_sink : (string -> unit) option;
  resume : string option;
  sym : bool;
  spill_dir : string option;
  spill_threshold : int;
  obs : Obs.t;
  on_event : string -> unit;
  cancel : (unit -> bool) option;
}

let rcfg_default =
  {
    budget = None;
    checkpoint_every = checkpoint_every_default;
    snapshot_sink = None;
    resume = None;
    sym = true;
    spill_dir = None;
    spill_threshold = spill_flush_default;
    obs = Obs.null;
    on_event = ignore;
    cancel = None;
  }

exception Resume_rejected of string

(* Shard count for the parallel claim table; a power of two well above any
   sensible domain count keeps lock contention negligible. *)
let n_shards = 64

(* Initial bucket counts: the sequential table (and the spill store's hot
   tier, created the same size) and each parallel shard. *)
let table_buckets = 4096
let shard_buckets = 1024

(* Reduction is pure overhead on programs whose state space fits in a few
   thousand states: the oracle tests cost more than the states they save.
   Every built-in corpus program is under this bar; [big3]-sized programs
   (12+ instructions) are over it.  Overridable per run for tests. *)
let por_min_instrs_default = 11

(* Adaptive parallelism: a requested multi-domain run first sweeps
   sequentially, and only fans out to domains if it is still going after
   this many states — spawning domains for a sub-millisecond sweep costs
   40-200x the sweep itself. *)
let spill_threshold_default = 2000

module Make (M : Machine_sig.MACHINE) = struct
  (* A state is its packed key (see {!Layout}): the frontier, the table,
     the shard selector, the Bloom filter and the spill store hold, hash
     and compare its bytes directly. *)
  module H = Hashtbl.Make (String)

  (* The transposition-table key of a state: the least key of its orbit
     under the compiled automorphisms ([maps = [||]] without symmetry —
     then the state itself).  [hits] counts states whose representative
     is a proper image. *)
  let table_key maps hits st =
    let m = Sym.orbit_min maps st in
    if m != st then incr hits;
    m

  (* --- snapshots ------------------------------------------------------------ *)

  (* Keys are strings, so the whole resume point marshals cleanly: no
     closures, no custom blocks.  The CRC in the [Snapshot] frame guards
     the unmarshal — only validated payloads are ever decoded.

     With reduction, visited states carry their stored sleep set and
     frontier states their arrival sleep set: the sleep-set revisit
     protocol resumes exactly where it stopped.  A run without reduction
     (and any parallel run) stores empty sleep lists. *)

  type visited_repr =
    | Exact_keys of (string * Machine_sig.action list) array
    | Bloom_filter of Bloom.state
    | Spilled of Spill_store.state
        (** visited set lives in a tiered spill store: hot keys inline,
            the rest named by immutable run files on disk *)

  type snap = {
    s_fingerprint : string;  (** name + printed program: identity check *)
    s_reduce : bool;  (** partial-order reduction active for the run *)
    s_sym : bool;  (** symmetry reduction active for the run *)
    s_visited : visited_repr;
    s_claimed : int;
    s_frontier : (string * Machine_sig.action list) list;
    s_acc : Final.Set.t;
    s_expanded : int;
    s_sym_hits : int;
        (** carried so a resumed run's telemetry continues the count —
            the verbose report stays byte-identical across kill/resume *)
    s_degraded_at : int option;
  }

  (* "explore5": frontier states became packed keys (explore4 carried
     machine state records, explore3 structural visited tuples); older
     snapshots are rejected by kind rather than misread. *)
  let snap_kind = "weakord.explore5/" ^ M.name

  let fingerprint prog =
    Format.asprintf "%s|%a" (Prog.name prog) Prog.pp prog

  let encode_snap s =
    Snapshot.frame ~kind:snap_kind
      ~meta:
        (Printf.sprintf "%d state(s) expanded, frontier %d" s.s_expanded
           (List.length s.s_frontier))
      ~payload:(Marshal.to_string s [])

  let decode_snap ~prog bytes =
    match Snapshot.unframe bytes with
    | Error e -> raise (Resume_rejected (Snapshot.error_string e))
    | Ok c ->
        if not (String.equal c.Snapshot.kind snap_kind) then
          raise
            (Resume_rejected
               (Printf.sprintf "snapshot was taken by %S, this engine is %S"
                  c.Snapshot.kind snap_kind));
        let s =
          try (Marshal.from_string c.Snapshot.payload 0 : snap)
          with Failure _ | Invalid_argument _ ->
            raise (Resume_rejected "snapshot payload does not unmarshal")
        in
        if not (String.equal s.s_fingerprint (fingerprint prog)) then
          raise
            (Resume_rejected
               "snapshot was taken for a different program (fingerprint \
                mismatch)");
        s

  let snapshot_frontier_length bytes =
    match Snapshot.unframe bytes with
    | Error e -> raise (Resume_rejected (Snapshot.error_string e))
    | Ok c -> (
        match (Marshal.from_string c.Snapshot.payload 0 : snap) with
        | s -> List.length s.s_frontier
        | exception (Failure _ | Invalid_argument _) ->
            raise (Resume_rejected "snapshot payload does not unmarshal"))

  (* Sleep-set state only ever comes from a reduced *sequential* run, and
     only the sequential engine can honour its revisit protocol. *)
  let snap_has_sleeps s =
    (match s.s_visited with
    | Exact_keys pairs -> Array.exists (fun (_, sl) -> sl <> []) pairs
    | Bloom_filter _ | Spilled _ -> false)
    || List.exists (fun (_, sl) -> sl <> []) s.s_frontier

  (* Rough per-entry cost of the exact visited set: the key's reachable
     words plus a few words of hash-table binding.  Measured once per run
     on the initial state's key (every key of a layout has the same
     length) — deterministic, so memory-budget behaviour is
     reproducible. *)
  let entry_bytes_estimate layout =
    let k = Layout.initial layout in
    (Obj.reachable_words (Obj.repr k) + 4) * (Sys.word_size / 8)

  (* Bytes a visited table of [n] keys occupies: [entry_bytes] per key plus
     the bucket array — [buckets] words at creation, and at least a word
     per two keys once it grows ([Hashtbl] doubles past two keys per
     bucket).  With packed keys the array is most of a small table. *)
  let table_bytes ~entry_bytes ~buckets n =
    (n * entry_bytes) + (max buckets (n / 2) * (Sys.word_size / 8))

  (* Bloom probes come from two independent hashes of the key bytes. *)
  let bloom_hashes k = (String.hash k, String.seeded_hash 0x9e3779b9 k)

  (* --- sequential engine ---------------------------------------------------- *)

  (* A frontier entry: the state plus the sleep set it arrives with
     (always [[]] without reduction). *)
  type fentry = { fs : string; fsleep : Machine_sig.action list }

  (* [run_seq] is both the one-domain engine (ample + sleep sets when the
     oracle is on and [use_sleep]) and the adaptive probe for a
     multi-domain request ([use_sleep:false], ample-only, so its visited
     set can be handed to the parallel engine at [spill]).  Returns the
     spill resume point instead of finishing when the threshold hits. *)
  let run_seq ~oracle:oracle0 ~use_sleep ?spill ~perms ~layout ~maps ~store
      ~resumed ~fuel ~(rcfg : rcfg) prog =
    (* The transposition table: a key's presence means the state was
       claimed; its value is the sleep set stored by the first expansion,
       consulted on revisits.  With a spill store the table is bypassed
       entirely: membership lives in the store (hot tier + disk runs),
       which is valid because a spilling run never uses sleep sets. *)
    let visited : Machine_sig.action list ref H.t = H.create table_buckets in
    let bloom = ref None in
    let claimed = ref 0 in
    let acc = ref Final.Set.empty in
    let expanded = ref 0 in
    let degraded_at = ref None in
    let oracle = ref oracle0 in
    let reduce_on = oracle0 <> None in
    let oracle_calls = ref 0 in
    let ample_hits = ref 0 in
    let suppressed = ref 0 in
    let sym_hits = ref 0 in
    let stack = ref [ { fs = Layout.initial layout; fsleep = [] } ] in
    let stop = ref None in
    let spilled = ref false in
    let entry_bytes = entry_bytes_estimate layout in
    let visited_bytes n = table_bytes ~entry_bytes ~buckets:table_buckets n in
    (* Restore a resume point before the sweep starts. *)
    (match resumed with
    | None -> ()
    | Some s ->
        (match (s.s_visited, store) with
        | _, Some _ ->
            (* [run] already loaded the spill store (import, or a fresh
               store seeded from the snapshot's exact keys). *)
            ()
        | Exact_keys pairs, None ->
            Array.iter
              (fun (k, sl) ->
                if not (H.mem visited k) then H.add visited k (ref sl))
              pairs
        | Bloom_filter bs, None -> bloom := Some (Bloom.import bs)
        | Spilled _, None -> assert false (* rejected in [run] *));
        claimed := s.s_claimed;
        acc := s.s_acc;
        expanded := s.s_expanded;
        sym_hits := s.s_sym_hits;
        degraded_at := s.s_degraded_at;
        if !degraded_at <> None then oracle := None;
        stack := List.map (fun (st, sl) -> { fs = st; fsleep = sl }) s.s_frontier;
        Obs.instant rcfg.obs ~cat:"explore" ~name:"resume" ~tid:0
          ~ts:s.s_expanded ~loc:"" ~cause:"";
        rcfg.on_event
          (Printf.sprintf
             "resumed %s/%s: %d state(s) already expanded, frontier %d%s"
             M.name (Prog.name prog) s.s_expanded (List.length s.s_frontier)
             (match s.s_degraded_at with
             | Some n ->
                 Printf.sprintf " (degraded to Bloom visited set at %d)" n
             | None -> "")));
    let make_snap () =
      (* Stored sleep sets exist only to answer the revisit protocol
         while exploration continues.  Once the frontier is empty nothing
         will ever be revisited, so the final snapshot drops them — they
         are the expensive part of the payload (per-key action lists vs.
         bare keys). *)
      let keep_sleeps = !stack <> [] in
      let repr =
        match store with
        | Some sp -> Spilled (Spill_store.export sp)
        | None -> (
            match !bloom with
            | Some b -> Bloom_filter (Bloom.export b)
            | None ->
                let pairs =
                  Array.make (H.length visited)
                    ("", ([] : Machine_sig.action list))
                in
                let i = ref 0 in
                H.iter
                  (fun k sl ->
                    pairs.(!i) <- (k, (if keep_sleeps then !sl else []));
                    incr i)
                  visited;
                Exact_keys pairs)
      in
      {
        s_fingerprint = fingerprint prog;
        s_reduce = reduce_on;
        s_sym = perms <> [];
        s_visited = repr;
        s_claimed = !claimed;
        s_frontier = List.map (fun f -> (f.fs, f.fsleep)) !stack;
        s_acc = !acc;
        s_expanded = !expanded;
        s_sym_hits = !sym_hits;
        s_degraded_at = !degraded_at;
      }
    in
    let take_snapshot () = encode_snap (make_snap ()) in
    (* Periodic snapshots are throttled by their own cost: one is skipped
       while taking it would spend more than ~5% of the wall-clock since
       the last one (snapshot cost grows with the visited set, so a fixed
       expansion interval would go quadratic on big sweeps).  [~force]
       (stop/final snapshots) bypasses the throttle — a suspension always
       leaves a current resume point. *)
    let last_snap_end = ref neg_infinity in
    let last_snap_cost = ref 0. in
    let checkpoint ~force () =
      match rcfg.snapshot_sink with
      | None -> ()
      | Some sink ->
          let now = Unix.gettimeofday () in
          if force || now -. !last_snap_end >= 20. *. !last_snap_cost then begin
            sink (take_snapshot ());
            let fin = Unix.gettimeofday () in
            last_snap_end := fin;
            last_snap_cost := fin -. now;
            Obs.instant rcfg.obs ~cat:"explore" ~name:"checkpoint" ~tid:0
              ~ts:!expanded ~loc:"" ~cause:""
          end
    in
    (* Migrate the exact table into a Bloom filter: sized at ~32 bits per
       key already claimed (with a 2^20 floor) the false-positive rate is
       negligible at litmus scale, and the byte cost per future state
       drops from hundreds to four bits.  The approximate table cannot
       answer the sleep-set revisit protocol, so reduction is switched
       off for the rest of the sweep — the run is pinned Partial anyway. *)
    let degrade () =
      let bits = max (1 lsl 20) (32 * !claimed) in
      let b = Bloom.create ~bits in
      H.iter
        (fun k _ ->
          let h1, h2 = bloom_hashes k in
          ignore (Bloom.add_mem b h1 h2))
        visited;
      H.reset visited;
      bloom := Some b;
      degraded_at := Some !expanded;
      let por_note =
        if !oracle <> None then begin
          oracle := None;
          "; partial-order reduction disabled for the rest of the sweep"
        end
        else ""
      in
      Obs.instant rcfg.obs ~cat:"explore" ~name:"degrade" ~tid:0 ~ts:!expanded
        ~loc:"" ~cause:"mem-budget";
      rcfg.on_event
        (Printf.sprintf
           "memory budget crossed at %d state(s) (~%d bytes of visited \
            set): degrading to a Bloom-filter visited set (%d bits) — \
            coverage is now approximate, the verdict will be Partial%s"
           !expanded (visited_bytes !claimed) (Bloom.bits b) por_note)
    in
    (* The spill-store counterpart of [degrade]: crossing the memory
       budget flushes the hot tier into an immutable run on disk instead
       of forgetting anything, so membership stays exact and the result
       stays [Complete]. *)
    let spill_flush sp =
      Spill_store.flush sp;
      Gc.compact ();
      let s = Spill_store.stats sp in
      Obs.instant rcfg.obs ~cat:"explore" ~name:"spill" ~tid:0 ~ts:!expanded
        ~loc:"" ~cause:"mem-budget";
      rcfg.on_event
        (Printf.sprintf
           "memory budget crossed at %d state(s): flushed the hot visited \
            tier to disk (%d run(s), %d key(s) spilled) — coverage stays \
            exact" !expanded s.Spill_store.st_runs
           s.Spill_store.st_spilled_keys)
    in
    let push fs fsleep = stack := { fs; fsleep } :: !stack in
    (* Expand a freshly claimed state.  [stored] is its visited-table
       slot (None once degraded); the first expansion records the arrival
       sleep restricted to enabled transitions so a later visit with a
       smaller sleep set knows exactly what to re-fire. *)
    let expand_fresh st ~stored ~sleep =
      incr expanded;
      match M.final layout st with
      | Some f ->
          (* Close recorded outcomes under the automorphism group: the
             skipped orbit siblings' finals are exactly these images. *)
          acc := Final.Set.add f !acc;
          List.iter
            (fun pi -> acc := Final.Set.add (Sym.apply_final pi f) !acc)
            perms
      | None -> (
          match !oracle with
          | None ->
              List.iter (fun (_, s) -> push s []) (M.successors layout st)
          | Some o -> (
              incr oracle_calls;
              let succs = M.successors layout st in
              let sleep = if use_sleep then sleep else [] in
              (match stored with
              | Some r when sleep <> [] ->
                  r :=
                    List.filter
                      (fun a -> List.exists (fun (b, _) -> b = a) succs)
                      sleep
              | _ -> ());
              match o.Machine_sig.ample st succs with
              | Some (a, s') ->
                  incr ample_hits;
                  let n = List.length succs in
                  if use_sleep && List.mem a sleep then
                    (* The whole subtree is covered from wherever [a] was
                       fired before this branch slept it. *)
                    suppressed := !suppressed + n
                  else begin
                    suppressed := !suppressed + n - 1;
                    push s'
                      (List.filter
                         (fun u -> Machine_sig.independent u a)
                         sleep)
                  end
              | None ->
                  if not use_sleep then
                    List.iter (fun (_, s') -> push s' []) succs
                  else begin
                    (* Full expansion under sleep sets: skip slept
                       transitions; each fired child sleeps its earlier
                       siblings (and inherited sleepers) that commute
                       with it. *)
                    let fired = ref [] in
                    List.iter
                      (fun (a, s') ->
                        if List.mem a sleep then incr suppressed
                        else begin
                          push s'
                            (List.filter
                               (fun u -> Machine_sig.independent u a)
                               (List.rev_append !fired sleep));
                          fired := a :: !fired
                        end)
                      succs
                  end))
    in
    (* Revisit of a cached state: re-fire exactly the transitions the
       first expansion slept that this visit does not, and shrink the
       stored sleep to the intersection (Godefroid's state-caching +
       sleep-sets protocol).  No [expanded] tick: the state was counted
       when first claimed. *)
    let revisit st ~stored ~sleep =
      let need, keep =
        List.partition (fun a -> not (List.mem a sleep)) !stored
      in
      if need <> [] then begin
        stored := keep;
        match !oracle with
        | None -> ()
        | Some _ ->
            let fired = ref [] in
            List.iter
              (fun (a, s') ->
                if List.mem a need then begin
                  push s'
                    (List.filter
                       (fun u -> Machine_sig.independent u a)
                       (List.rev_append !fired sleep));
                  fired := a :: !fired
                end)
              (M.successors layout st)
      end
    in
    let iters = ref 0 in
    let running = ref true in
    while !running do
      match !stack with
      | [] -> running := false
      | { fs = st; fsleep = sleep } :: rest ->
          (* Safe point: every bound is checked before [st] is claimed,
             so on a stop it stays in the frontier and the resume point
             is complete. *)
          (* The mask test fires at iteration 0 too, so an already-expired
             deadline suspends before anything is expanded. *)
          (match rcfg.budget with
          | Some b when !iters land 63 = 0 && Budget.over_deadline b ->
              stop := Some Deadline_exceeded
          | _ -> ());
          (* External cancellation (a supervisor's drain signal) stops at
             the same safe point as the budgets: the state under the
             cursor stays in the frontier and the final snapshot is a
             complete resume point. *)
          (match rcfg.cancel with
          | Some cancelled when !iters land 63 = 0 && cancelled () ->
              stop := Some Cancelled
          | _ -> ());
          incr iters;
          if !expanded >= fuel then stop := Some Fuel_exhausted;
          (match spill with
          | Some sp when !stop = None && !bloom = None && !expanded >= sp ->
              spilled := true
          | _ -> ());
          if !stop <> None || !spilled then running := false
          else begin
            stack := rest;
            let kk = table_key maps sym_hits st in
            (match store with
            | Some sp ->
                if Spill_store.add sp kk then begin
                  incr claimed;
                  (match rcfg.budget with
                  | Some b
                    when Budget.over_memory b
                           ~bytes:(visited_bytes (Spill_store.hot_size sp)) ->
                      spill_flush sp
                  | _ -> ());
                  expand_fresh st ~stored:None ~sleep
                end
            | None -> (
                match !bloom with
                | Some b ->
                    let h1, h2 = bloom_hashes kk in
                    if not (Bloom.add_mem b h1 h2) then begin
                      incr claimed;
                      expand_fresh st ~stored:None ~sleep
                    end
                | None -> (
                    match H.find_opt visited kk with
                    | Some stored -> revisit st ~stored ~sleep
                    | None ->
                        let stored = ref [] in
                        H.add visited kk stored;
                        incr claimed;
                        (match rcfg.budget with
                        | Some b
                          when Budget.over_memory b
                                 ~bytes:(visited_bytes !claimed) ->
                            degrade ()
                        | _ -> ());
                        expand_fresh st ~stored:(Some stored) ~sleep)));
            if
              rcfg.snapshot_sink <> None
              && !expanded mod rcfg.checkpoint_every = 0
            then checkpoint ~force:false ()
          end
    done;
    if !stop <> None then checkpoint ~force:true ();
    if reduce_on then begin
      Obs.counter rcfg.obs ~cat:"explore" ~name:"por_oracle_calls" ~tid:0
        ~ts:!expanded ~value:!oracle_calls;
      Obs.counter rcfg.obs ~cat:"explore" ~name:"por_ample_hits" ~tid:0
        ~ts:!expanded ~value:!ample_hits;
      Obs.counter rcfg.obs ~cat:"explore" ~name:"por_suppressed" ~tid:0
        ~ts:!expanded ~value:!suppressed
    end;
    let table_buckets, max_probe =
      if !bloom = None && store = None then
        let hstats = H.stats visited in
        (hstats.Hashtbl.num_buckets, hstats.Hashtbl.max_bucket_length)
      else (0, 0)
    in
    let spilled_runs, spilled_keys =
      match store with
      | None -> (0, 0)
      | Some sp ->
          let s = Spill_store.stats sp in
          (s.Spill_store.st_runs, s.Spill_store.st_spilled_keys)
    in
    let partial = !stop <> None || !degraded_at <> None in
    ( {
        result = (if partial then Partial !acc else Complete !acc);
        stop = !stop;
        stats =
          {
            states_expanded = !expanded;
            domains_used = 1;
            claimed = !claimed;
            claimed_per_shard = [| !claimed |];
            donations = 0;
            table_buckets;
            max_probe;
            degraded_at = !degraded_at;
            por_enabled = reduce_on;
            oracle_calls = !oracle_calls;
            ample_hits = !ample_hits;
            suppressed = !suppressed;
            sym_group = List.length perms + 1;
            sym_hits = !sym_hits;
            spilled_runs;
            spilled_keys;
          };
      },
      if !spilled then Some (make_snap ()) else None )

  (* --- parallel engine ------------------------------------------------------ *)

  type shard = { lock : Mutex.t; table : int H.t }

  type shared = {
    shards : shard array;
    next_id : int Atomic.t;
    queue_lock : Mutex.t;
    work : Condition.t;
    mutable pending : string list;  (** overflow frontier, any order *)
    mutable idle : int;
    mutable stop : bool;
    hungry : int Atomic.t;  (** mirrors [idle] for lock-free peeking *)
    fuel : int;
    stopping : stop_reason option Atomic.t;
    expanded : int Atomic.t;
    donations : int Atomic.t;
    ndomains : int;
    budget : Budget.t option;
    cancel : (unit -> bool) option;
    entry_bytes : int;
    store : Spill_store.t option;
        (** shared spill store replacing the sharded claim table; its own
            mutex serializes claims, and duplicates refund the fuel they
            reserved (an immutable run cannot be unclaimed) *)
    leftover_lock : Mutex.t;
    mutable leftovers : string list;
        (** unclaimed states parked by stopping workers — the other half
            of the resume frontier *)
  }

  let shard_of sh k =
    sh.shards.((String.hash k land max_int) mod Array.length sh.shards)

  (* First visit wins: returns [true] iff this domain claimed the key. *)
  let try_claim sh k =
    let s = shard_of sh k in
    Mutex.lock s.lock;
    let fresh = not (H.mem s.table k) in
    if fresh then H.add s.table k (Atomic.fetch_and_add sh.next_id 1);
    Mutex.unlock s.lock;
    fresh

  (* Give a claim back (the claimer hit a bound before expanding): the
     state must stay claimable after resume. *)
  let unclaim sh k =
    let s = shard_of sh k in
    Mutex.lock s.lock;
    H.remove s.table k;
    Mutex.unlock s.lock

  let set_stop sh reason =
    if Atomic.compare_and_set sh.stopping None (Some reason) then begin
      (* Wake sleepers so they can drain and exit. *)
      Mutex.lock sh.queue_lock;
      Condition.broadcast sh.work;
      Mutex.unlock sh.queue_lock
    end

  let add_leftover sh st =
    Mutex.lock sh.leftover_lock;
    sh.leftovers <- st :: sh.leftovers;
    Mutex.unlock sh.leftover_lock

  let donate sh batch =
    Atomic.incr sh.donations;
    Mutex.lock sh.queue_lock;
    sh.pending <- List.rev_append batch sh.pending;
    Condition.broadcast sh.work;
    Mutex.unlock sh.queue_lock

  (* Blocking pop with distributed-termination detection: when every domain
     is idle and the overflow queue is empty — or a stop was requested —
     the sweep is done.  On a stop the queue is drained into [leftovers]
     so the resume frontier loses nothing. *)
  let get_work sh =
    Mutex.lock sh.queue_lock;
    let rec loop () =
      if Atomic.get sh.stopping <> None then begin
        if sh.pending <> [] then begin
          Mutex.lock sh.leftover_lock;
          sh.leftovers <- List.rev_append sh.pending sh.leftovers;
          Mutex.unlock sh.leftover_lock;
          sh.pending <- []
        end;
        sh.stop <- true;
        Condition.broadcast sh.work;
        Mutex.unlock sh.queue_lock;
        None
      end
      else
        match sh.pending with
        | st :: rest ->
            sh.pending <- rest;
            Mutex.unlock sh.queue_lock;
            Some st
        | [] ->
            if sh.stop then begin
              Mutex.unlock sh.queue_lock;
              None
            end
            else begin
              sh.idle <- sh.idle + 1;
              Atomic.incr sh.hungry;
              if sh.idle = sh.ndomains then begin
                sh.stop <- true;
                Condition.broadcast sh.work;
                Mutex.unlock sh.queue_lock;
                None
              end
              else begin
                Condition.wait sh.work sh.queue_lock;
                sh.idle <- sh.idle - 1;
                Atomic.decr sh.hungry;
                loop ()
              end
            end
    in
    loop ()

  let rec split_half n acc l =
    if n = 0 then (acc, l)
    else
      match l with [] -> (acc, []) | x :: rest -> split_half (n - 1) (x :: acc) rest

  (* Parallel workers run ample-only reduction: the ample choice is a
     function of the state alone, so the claimed-state set stays
     schedule-independent.  (Sleep sets are a property of the visit
     order; they stay sequential.)  Per-worker reduction counters avoid
     atomic traffic; the parent sums them. *)
  let worker sh oracle perms layout maps =
    let acc = ref Final.Set.empty in
    let oracle_calls = ref 0 in
    let ample_hits = ref 0 in
    let suppressed = ref 0 in
    let sym_hits = ref 0 in
    let local = ref [] in
    let iters = ref 0 in
    let expand st =
      match M.final layout st with
      | Some f ->
          acc := Final.Set.add f !acc;
          List.iter
            (fun pi -> acc := Final.Set.add (Sym.apply_final pi f) !acc)
            perms
      | None -> (
          match oracle with
          | None ->
              List.iter
                (fun (_, s) -> local := s :: !local)
                (M.successors layout st)
          | Some o -> (
              incr oracle_calls;
              let succs = M.successors layout st in
              match o.Machine_sig.ample st succs with
              | Some (_, s') ->
                  incr ample_hits;
                  suppressed := !suppressed + List.length succs - 1;
                  local := s' :: !local
              | None -> List.iter (fun (_, s') -> local := s' :: !local) succs))
    in
    let process st =
      if Atomic.get sh.stopping <> None then add_leftover sh st
      else begin
        (match sh.budget with
        | Some b when !iters land 63 = 0 ->
            let bytes =
              match sh.store with
              | Some sp ->
                  table_bytes ~entry_bytes:sh.entry_bytes
                    ~buckets:table_buckets (Spill_store.hot_size sp)
              | None ->
                  table_bytes ~entry_bytes:sh.entry_bytes
                    ~buckets:(n_shards * shard_buckets)
                    (Atomic.get sh.next_id)
            in
            (match Budget.check b ~bytes with
            | Some Budget.Deadline -> set_stop sh Deadline_exceeded
            | Some Budget.Memory -> (
                match sh.store with
                | Some sp ->
                    (* Spill instead of stopping: the hot tier flushes to
                       an immutable run and the sweep stays exact. *)
                    Spill_store.flush sp
                | None ->
                    (* The sharded exact table cannot migrate to a Bloom
                       filter mid-sweep; drain cleanly instead. *)
                    set_stop sh Memory_exhausted)
            | None -> ())
        | _ -> ());
        (match sh.cancel with
        | Some cancelled when !iters land 63 = 0 && cancelled () ->
            set_stop sh Cancelled
        | _ -> ());
        incr iters;
        if Atomic.get sh.stopping <> None then add_leftover sh st
        else
          (* A deterministic function of the state alone, so symmetry
             pruning keeps the claimed-state set schedule-independent. *)
          let kk = table_key maps sym_hits st in
          match sh.store with
          | Some sp ->
              (* Fuel is reserved *before* the claim: a spilled claim
                 cannot be given back (runs are immutable), so a
                 duplicate refunds its reservation instead. *)
              let n = Atomic.fetch_and_add sh.expanded 1 in
              if n >= sh.fuel then begin
                Atomic.decr sh.expanded;
                set_stop sh Fuel_exhausted;
                add_leftover sh st
              end
              else if not (Spill_store.add sp kk) then Atomic.decr sh.expanded
              else expand st
          | None ->
              if try_claim sh kk then
                let n = Atomic.fetch_and_add sh.expanded 1 in
                if n >= sh.fuel then begin
                  (* Bound reached after the claim: give the claim back so
                     the state survives into the resume frontier. *)
                  Atomic.decr sh.expanded;
                  unclaim sh kk;
                  set_stop sh Fuel_exhausted;
                  add_leftover sh st
                end
                else expand st
      end
    in
    let rec loop () =
      match !local with
      | st :: rest ->
          local := rest;
          process st;
          (* Rebalance: if someone is starving and we hold more than one
             state, hand over half of our stack. *)
          (if Atomic.get sh.hungry > 0 && Atomic.get sh.stopping = None then
             match !local with
             | _ :: _ :: _ ->
                 let gift, keep =
                   split_half (List.length !local / 2) [] !local
                 in
                 local := keep;
                 donate sh gift
             | _ -> ());
          loop ()
      | [] -> (
          match get_work sh with
          | Some st ->
              local := [ st ];
              loop ()
          | None ->
              (* A stopping worker parks whatever it still holds. *)
              if Atomic.get sh.stopping <> None then
                List.iter (add_leftover sh) !local)
    in
    loop ();
    (!acc, !oracle_calls, !ample_hits, !suppressed, !sym_hits)

  (* [handoff] says where [resumed] came from: [true] for the adaptive
     probe's own snapshot, [false] for a real [--resume]. *)
  let run_par ~oracle ~perms ~layout ~maps ~store ~resumed ~handoff ~domains
      ~fuel ~(rcfg : rcfg) prog =
    (match resumed with
    | Some { s_visited = Bloom_filter _; _ } ->
        raise
          (Resume_rejected
             "this snapshot's visited set is a Bloom filter (degraded \
              run); resume it with the sequential engine (--jobs 1)")
    | _ -> ());
    let sh =
      {
        shards =
          Array.init n_shards (fun _ ->
              { lock = Mutex.create (); table = H.create shard_buckets });
        next_id = Atomic.make 0;
        queue_lock = Mutex.create ();
        work = Condition.create ();
        pending = [ Layout.initial layout ];
        idle = 0;
        stop = false;
        hungry = Atomic.make 0;
        fuel;
        stopping = Atomic.make None;
        expanded = Atomic.make 0;
        donations = Atomic.make 0;
        ndomains = domains;
        budget = rcfg.budget;
        cancel = rcfg.cancel;
        entry_bytes = entry_bytes_estimate layout;
        store;
        leftover_lock = Mutex.create ();
        leftovers = [];
      }
    in
    let resumed_sym_hits = ref 0 in
    let resumed_acc =
      match resumed with
      | None -> Final.Set.empty
      | Some s ->
          (match (s.s_visited, store) with
          | _, Some _ ->
              (* The store already holds the claims: either [run] loaded
                 it, or the adaptive probe shares this very instance. *)
              ()
          | Exact_keys pairs, None ->
              Array.iter (fun (k, _) -> ignore (try_claim sh k)) pairs
          | (Bloom_filter _ | Spilled _), None -> assert false);
          Atomic.set sh.expanded s.s_expanded;
          resumed_sym_hits := s.s_sym_hits;
          sh.pending <- List.map fst s.s_frontier;
          rcfg.on_event
            (if handoff then
               Printf.sprintf
                 "handed off %s/%s to %d domain(s): %d state(s) already \
                  expanded, frontier %d"
                 M.name (Prog.name prog) domains s.s_expanded
                 (List.length s.s_frontier)
             else
               Printf.sprintf
                 "resumed %s/%s: %d state(s) already expanded, frontier %d"
                 M.name (Prog.name prog) s.s_expanded
                 (List.length s.s_frontier));
          s.s_acc
    in
    let others =
      Array.init (domains - 1) (fun _ ->
          Domain.spawn (fun () -> worker sh oracle perms layout maps))
    in
    let mine = worker sh oracle perms layout maps in
    let results = Array.append [| mine |] (Array.map Domain.join others) in
    let acc =
      Array.fold_left
        (fun a (w, _, _, _, _) -> Final.Set.union w a)
        resumed_acc results
    in
    let sum f = Array.fold_left (fun a r -> a + f r) 0 results in
    let oracle_calls = sum (fun (_, oc, _, _, _) -> oc) in
    let ample_hits = sum (fun (_, _, ah, _, _) -> ah) in
    let suppressed = sum (fun (_, _, _, su, _) -> su) in
    let sym_hits = !resumed_sym_hits + sum (fun (_, _, _, _, sy) -> sy) in
    let stop = Atomic.get sh.stopping in
    (* On an early stop, hand the caller a resume point: every claimed key
       plus the parked frontier. *)
    (match (stop, rcfg.snapshot_sink) with
    | Some _, Some sink ->
        let repr, n =
          match store with
          | Some sp -> (Spilled (Spill_store.export sp), Spill_store.total sp)
          | None ->
              let n =
                Array.fold_left (fun a s -> a + H.length s.table) 0 sh.shards
              in
              let keys = Array.make n ("", ([] : Machine_sig.action list)) in
              let i = ref 0 in
              Array.iter
                (fun s ->
                  H.iter
                    (fun k _ ->
                      keys.(!i) <- (k, []);
                      incr i)
                    s.table)
                sh.shards;
              (Exact_keys keys, n)
        in
        sink
          (encode_snap
             {
               s_fingerprint = fingerprint prog;
               s_reduce = oracle <> None;
               s_sym = perms <> [];
               s_visited = repr;
               s_claimed = n;
               s_frontier = List.map (fun st -> (st, [])) sh.leftovers;
               s_acc = acc;
               s_expanded = Atomic.get sh.expanded;
               s_sym_hits = sym_hits;
               s_degraded_at = None;
             });
        Obs.instant rcfg.obs ~cat:"explore" ~name:"checkpoint" ~tid:0
          ~ts:(Atomic.get sh.expanded) ~loc:"" ~cause:""
    | _ -> ());
    let claimed, per_shard, buckets, max_probe =
      match store with
      | Some sp -> (Spill_store.total sp, [| Spill_store.total sp |], 0, 0)
      | None ->
          let per_shard = Array.map (fun s -> H.length s.table) sh.shards in
          let buckets, max_probe =
            Array.fold_left
              (fun (b, m) s ->
                let st = H.stats s.table in
                ( b + st.Hashtbl.num_buckets,
                  max m st.Hashtbl.max_bucket_length ))
              (0, 0) sh.shards
          in
          (Array.fold_left ( + ) 0 per_shard, per_shard, buckets, max_probe)
    in
    let spilled_runs, spilled_keys =
      match store with
      | None -> (0, 0)
      | Some sp ->
          let s = Spill_store.stats sp in
          (s.Spill_store.st_runs, s.Spill_store.st_spilled_keys)
    in
    {
      result = (if stop <> None then Partial acc else Complete acc);
      stop;
      stats =
        {
          states_expanded = Atomic.get sh.expanded;
          domains_used = domains;
          claimed;
          claimed_per_shard = per_shard;
          donations = Atomic.get sh.donations;
          table_buckets = buckets;
          max_probe;
          degraded_at = None;
          por_enabled = oracle <> None;
          oracle_calls;
          ample_hits;
          suppressed;
          sym_group = List.length perms + 1;
          sym_hits;
          spilled_runs;
          spilled_keys;
        };
    }

  (* --- public API ----------------------------------------------------------- *)

  let run ?(domains = 1) ?(adaptive = true) ?(reduce = true)
      ?(por_min_instrs = por_min_instrs_default) ?fuel ?(rcfg = rcfg_default)
      prog =
    if domains < 1 then invalid_arg "Explore.run: domains must be >= 1";
    (match fuel with
    | Some f when f < 0 -> invalid_arg "Explore.run: negative fuel"
    | _ -> ());
    if rcfg.checkpoint_every < 1 then
      invalid_arg "Explore.run: checkpoint_every must be >= 1";
    if rcfg.spill_threshold < 1 then
      invalid_arg "Explore.run: spill_threshold must be >= 1";
    let fuel = Option.value fuel ~default:max_int in
    (* The cheap guard: below the instruction threshold the whole state
       space is a few thousand states and the oracle costs more than it
       saves — skip the machinery entirely. *)
    let layout = Layout.cached prog M.shape in
    let oracle =
      if reduce && Prog.num_instrs prog >= por_min_instrs then M.por layout
      else None
    in
    let reduce_on = oracle <> None in
    (* Symmetry reduction activates whenever the program's automorphism
       group is nontrivial — unlike the oracle it has no size guard, the
       trivial group costing nothing. *)
    let group = if rcfg.sym then Sym.cached prog else Sym.trivial in
    let perms = group.Sym.perms in
    let sym_on = perms <> [] in
    let maps = Sym.compile layout group in
    let resumed =
      Option.map (fun bytes -> decode_snap ~prog bytes) rcfg.resume
    in
    (match resumed with
    | Some s when s.s_reduce <> reduce_on ->
        raise
          (Resume_rejected
             (Printf.sprintf
                "snapshot was taken with partial-order reduction %s but \
                 this run has it %s; rerun with a matching --no-por setting"
                (if s.s_reduce then "on" else "off")
                (if reduce_on then "on" else "off")))
    | _ -> ());
    (match resumed with
    | Some s when s.s_sym <> sym_on ->
        raise
          (Resume_rejected
             (Printf.sprintf
                "snapshot was taken with symmetry reduction %s but this \
                 run has it %s; rerun with a matching --no-sym setting"
                (if s.s_sym then "on" else "off")
                (if sym_on then "on" else "off")))
    | _ -> ());
    (* The spill store is decided (and loaded) before any engine starts:
       it is active from the very first claim or not at all — no
       mid-sweep migration. *)
    let store =
      match rcfg.spill_dir with
      | None -> (
          match resumed with
          | Some { s_visited = Spilled _; _ } ->
              raise
                (Resume_rejected
                   "this snapshot's visited set lives in a spill store; \
                    resume it with the same --spill-dir")
          | _ -> None)
      | Some dir -> (
          let threshold = rcfg.spill_threshold in
          match resumed with
          | Some { s_visited = Spilled xs; _ } -> (
              match Spill_store.import ~dir ~threshold xs with
              | sp -> Some sp
              | exception Spill_store.Corrupt msg ->
                  raise
                    (Resume_rejected ("spill store failed validation: " ^ msg)))
          | Some { s_visited = Bloom_filter _; _ } ->
              raise
                (Resume_rejected
                   "this snapshot's visited set is a Bloom filter (degraded \
                    run); it cannot seed an exact spill store")
          | Some { s_visited = Exact_keys pairs; _ } ->
              let sp = Spill_store.create ~dir ~threshold in
              Array.iter (fun (k, _) -> ignore (Spill_store.add sp k)) pairs;
              Some sp
          | None -> Some (Spill_store.create ~dir ~threshold))
    in
    (* Sleep sets are path-dependent: a revisit under a smaller sleep set
       must re-fire transitions, which neither the membership-only store
       nor orbit-merged visits can answer.  Ample-set reduction (a
       function of the state alone) stays on. *)
    let use_sleep = (not sym_on) && store = None in
    let finish r =
      Option.iter Spill_store.close store;
      r
    in
    let reject_sleeps () =
      match resumed with
      | Some s when snap_has_sleeps s ->
          raise
            (Resume_rejected
               "this snapshot carries sleep-set state from a reduced \
                sequential run; resume it with the sequential engine \
                (--jobs 1)")
      | _ -> ()
    in
    (* A sleep-carrying snapshot can only resume where the revisit
       protocol still runs: sequential, no symmetry, no spill store. *)
    if not use_sleep then reject_sleeps ();
    if domains = 1 then
      finish
        (fst
           (run_seq ~oracle ~use_sleep ~perms ~layout ~maps ~store ~resumed ~fuel ~rcfg
              prog))
    else if not adaptive then begin
      reject_sleeps ();
      finish
        (run_par ~oracle ~perms ~layout ~maps ~store ~resumed ~handoff:false ~domains ~fuel
           ~rcfg prog)
    end
    else begin
      (* Adaptive parallelism: never spawn more domains than the machine
         has cores, and never spawn any before the frontier proves it is
         worth it — a sequential probe sweeps until [spill_threshold] and
         hands its visited set over only if it is still going. *)
      let recommended = Domain.recommended_domain_count () in
      let eff = min domains recommended in
      if eff = 1 then begin
        Obs.instant rcfg.obs ~cat:"explore" ~name:"adaptive" ~tid:0 ~ts:0
          ~loc:"" ~cause:"cores";
        rcfg.on_event
          (Printf.sprintf
             "adaptive parallelism: %d domain(s) requested but %d core(s) \
              recognized; using the sequential engine" domains recommended);
        finish
          (fst
             (run_seq ~oracle ~use_sleep ~perms ~layout ~maps ~store ~resumed ~fuel ~rcfg
                prog))
      end
      else begin
        reject_sleeps ();
        let r, sp =
          run_seq ~oracle ~use_sleep:false ~perms ~layout ~maps ~store ~resumed ~fuel
            ~spill:spill_threshold_default ~rcfg prog
        in
        match sp with
        | None ->
            Obs.instant rcfg.obs ~cat:"explore" ~name:"adaptive" ~tid:0
              ~ts:r.stats.states_expanded ~loc:"" ~cause:"small-frontier";
            rcfg.on_event
              (Printf.sprintf
                 "adaptive parallelism: sweep ended under %d state(s); \
                  the sequential engine finished without spawning domains"
                 spill_threshold_default);
            finish r
        | Some snapv ->
            Obs.instant rcfg.obs ~cat:"explore" ~name:"adaptive" ~tid:0
              ~ts:snapv.s_expanded ~loc:"" ~cause:"spill";
            rcfg.on_event
              (Printf.sprintf
                 "adaptive parallelism: frontier spilled at %d state(s); \
                  fanning out to %d domain(s)" snapv.s_expanded eff);
            finish
              (run_par ~oracle ~perms ~layout ~maps ~store ~resumed:(Some snapv)
                 ~handoff:true ~domains:eff ~fuel ~rcfg prog)
      end
    end

  let outcomes ?domains ?reduce prog =
    bounded_value (run ?domains ?reduce prog).result

  let outcomes_bounded ~fuel prog =
    if fuel < 0 then invalid_arg "Explore.outcomes_bounded: negative fuel";
    (run ~fuel prog).result

  let allows prog cond = Cond.satisfiable_in (outcomes prog) cond

  let allows_exists prog = Option.map (allows prog) (Prog.exists prog)

  (* A machine [appears sequentially consistent] to a program when every
     outcome it allows is also an SC outcome (Definition 2's "appears").
     The SC reference set can be passed in (e.g. when sweeping many
     machines over one program); otherwise the process-wide memoized cache
     avoids re-enumerating SC per call. *)
  let appears_sc ?sc prog =
    let sc =
      match sc with Some s -> s | None -> Sc.outcomes_cached prog
    in
    Final.Set.subset (outcomes prog) sc
end
