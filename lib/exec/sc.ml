(* Exhaustive enumeration of sequentially consistent executions.

   An SC execution is an interleaving of the threads in which each access
   executes atomically, in program order (Lamport's definition, as
   instantiated in the paper's introduction).  [outcomes] computes the full
   set of results by reachability over machine states with a structural
   visited table and, by default, a partial-order reduction;
   [iter_traces] enumerates interleavings (no memoization — exponential,
   intended for litmus-sized programs and for cross-checking smarter
   analyses). *)

module K = Hashtbl.Make (String)

(* --- partial-order reduction ------------------------------------------------

   At a state where some thread's next instruction is a *data* load or
   store (or a fence) that cannot conflict with anything any other thread
   will ever do again — no other thread's remaining instructions access the
   location at all for a write, nor write it for a read — interleaving it
   against the other threads is pure redundancy: it commutes with every
   step the others can take before it, so every complete run is
   Mazurkiewicz-equivalent to one that fires it immediately.  Exploring
   only that step preserves the outcome set exactly.

   Synchronization operations are never commuted: they are the program's
   ordering backbone, and the blocking ones ([Await]/[Lock]) have
   enabledness that other threads control, so firing them eagerly could
   not be justified by static independence.  The same goes for data
   [Await]s (blocking) and RMWs (conservatively treated as sync). *)

(* The static conflict facts (per-thread suffix masks) come from
   {!Por_static}, the table this reduction now shares with the abstract
   machines' independence oracles. *)

(* The first thread whose next instruction can soundly be fired alone, if
   any.  Determinism of the choice keeps the reduced graph canonical. *)
(* The independence test runs once per (state, thread) on the hottest
   loop in the tree, so it uses [Por_static]'s dense-location-id masks —
   a shift and a mask per other thread, no map lookup — whenever the
   program's locations fit one word (every litmus-sized program), and
   the string-keyed suffix maps otherwise. *)
let por_candidate (info : Por_static.t) st =
  let nprocs = Array.length st.Sem.threads in
  let dense = Por_static.has_dense_ids info in
  let clear p ~pj loc ~write =
    let lid = if dense then Por_static.instr_loc_id info ~p ~j:pj else -1 in
    let ok = ref true in
    for q = 0 to nprocs - 1 do
      if !ok && q <> p then begin
        let jq = st.Sem.threads.(q).Sem.next in
        if
          if dense then
            if write then Por_static.access_remains_id info ~p:q ~j:jq lid
            else Por_static.write_remains_id info ~p:q ~j:jq lid
          else if write then Por_static.access_remains info ~p:q ~j:jq loc
          else Por_static.write_remains info ~p:q ~j:jq loc
        then ok := false
      end
    done;
    !ok
  in
  let rec pick p =
    if p >= nprocs then None
    else
      let j = st.Sem.threads.(p).Sem.next in
      let instrs = info.Por_static.instrs.(p) in
      if j >= Array.length instrs then pick (p + 1)
      else
        let eligible =
          match instrs.(j) with
          | Instr.Fence -> true
          | Instr.Load { kind = Instr.Data; loc; _ } ->
              clear p ~pj:j loc ~write:false
          | Instr.Store { kind = Instr.Data; loc; _ } ->
              clear p ~pj:j loc ~write:true
          | _ -> false
        in
        if eligible then Some p else pick (p + 1)
  in
  pick 0

(* --- symmetry reduction -----------------------------------------------------

   Probe the visited table with the least key in the state's orbit under
   the program's automorphism group ({!Sym.orbit_min}), and close
   recorded outcomes under the group at record time.  Sound because every
   automorphism fixes the initial state and maps steps to steps and
   finals to finals (see {!Sym}): a state whose orbit representative was
   already expanded has exactly the image outcomes of the expanded one,
   and those are in the accumulator by closure.  The argument composes
   with the partial-order reduction above by induction on the (acyclic)
   SC graph. *)

(* --- outcome enumeration ---------------------------------------------------- *)

type por_stats = { por_taken : int; por_declined : int }

(* Reachability sweep: the outcome set is the union of finals over all
   reachable states, collected into one accumulator (no per-node set
   unions).  Returns the set, the number of distinct states visited, the
   reduction's hit/miss telemetry, and whether the sweep ran to
   completion.  [budget] is checked at a safe point every few dozen
   visited states; on exhaustion the sweep drains cleanly and the set is
   a sound subset of the complete one (exploration only cuts branches). *)
let explore_budgeted ?(reduce = true) ?(sym = false) ?budget prog =
  let info = if reduce then Some (Por_static.cached prog) else None in
  let group = if sym then Sym.cached prog else Sym.trivial in
  let perms = group.Sym.perms in
  let layout = Sem.layout prog in
  let maps = Sym.compile layout group in
  let visited : unit K.t = K.create 1024 in
  let acc = ref Final.Set.empty in
  let taken = ref 0 in
  let declined = ref 0 in
  let complete = ref true in
  let nprocs = Prog.num_threads prog in
  let stack = ref [ Sem.initial prog ] in
  let running = ref true in
  (* A visited SC state costs on the order of a key plus a table binding;
     32 words is a deliberately low estimate so the budget errs on the
     side of stopping early rather than overshooting. *)
  let entry_bytes = 32 * (Sys.word_size / 8) in
  let exhausted () =
    match budget with
    | None -> false
    | Some b ->
        K.length visited land 63 = 0
        && Budget.check b ~bytes:(K.length visited * entry_bytes) <> None
  in
  while !running do
    match !stack with
    | [] -> running := false
    | st :: rest -> (
        if exhausted () then begin
          complete := false;
          running := false
        end
        else begin
        stack := rest;
        let k = Sym.orbit_min maps (Sem.key layout st) in
        if not (K.mem visited k) then begin
          K.add visited k ();
          if Sem.all_done prog st then begin
            let f = Sem.final_of_state st in
            acc := Final.Set.add f !acc;
            List.iter
              (fun pi -> acc := Final.Set.add (Sym.apply_final pi f) !acc)
              perms
          end
          else
            match
              match info with None -> None | Some i -> por_candidate i st
            with
            | Some p -> (
                incr taken;
                (* The candidate is a non-blocking data access or fence:
                   the step cannot fail. *)
                match Sem.step prog st p with
                | Some st' -> stack := st' :: !stack
                | None -> assert false)
            | None ->
                if reduce then incr declined;
                for p = nprocs - 1 downto 0 do
                  match Sem.step prog st p with
                  | None -> ()
                  | Some st' -> stack := st' :: !stack
                done
        end
        end)
  done;
  ( !acc,
    K.length visited,
    { por_taken = !taken; por_declined = !declined },
    !complete )

let explore_counted ?reduce ?sym prog =
  let set, states, por, _complete = explore_budgeted ?reduce ?sym prog in
  (set, states, por)

let explore_within ?reduce ?sym ~budget prog =
  let set, states, _por, complete =
    explore_budgeted ?reduce ?sym ~budget prog
  in
  (set, states, complete)

let explore ?reduce prog =
  let set, states, _ = explore_counted ?reduce prog in
  (set, states)

let outcomes ?reduce prog = fst (explore ?reduce prog)

(* --- the process-wide SC cache ----------------------------------------------

   [appears_sc]-style sweeps ask for the same program's SC set once per
   machine; enumerating it anew each time dominated their cost.  Keyed on
   physical program identity (programs are built once and passed around),
   guarded by a mutex so parallel exploration clients can share it. *)

let cache_lock = Mutex.create ()
let cache : (Prog.t * Final.Set.t) list ref = ref []
let cache_limit = 512

let outcomes_cached prog =
  Mutex.lock cache_lock;
  let hit = List.assq_opt prog !cache in
  Mutex.unlock cache_lock;
  match hit with
  | Some s -> s
  | None ->
      let s = outcomes prog in
      Mutex.lock cache_lock;
      if not (List.mem_assq prog !cache) then
        cache :=
          (prog, s) :: List.filteri (fun i _ -> i < cache_limit - 1) !cache;
      Mutex.unlock cache_lock;
      s

(* --- trace enumeration ------------------------------------------------------ *)

let iter_traces ?(reduce = false) prog f =
  let evts = Evts.of_prog prog in
  let nprocs = Prog.num_threads prog in
  (* Event ids of each thread as arrays for O(1) lookup by index. *)
  let ids = Array.init nprocs (fun p -> Array.of_list (Evts.by_proc evts p)) in
  let info = if reduce then Some (Por_static.cached prog) else None in
  let rec explore state trace =
    if Sem.all_done prog state then
      f (List.rev trace) (Sem.final_of_state state)
    else
      let fire p state' =
        let fired = ids.(p).(state.Sem.threads.(p).Sem.next) in
        explore state' (fired :: trace)
      in
      match
        match info with None -> None | Some i -> por_candidate i state
      with
      | Some p -> (
          match Sem.step prog state p with
          | Some state' -> fire p state'
          | None -> assert false)
      | None ->
          for p = 0 to nprocs - 1 do
            match Sem.step prog state p with
            | None -> ()
            | Some state' -> fire p state'
          done
  in
  explore (Sem.initial prog) []

let count_traces ?reduce prog =
  let n = ref 0 in
  iter_traces ?reduce prog (fun _ _ -> incr n);
  !n

let allows prog cond =
  Cond.satisfiable_in (outcomes prog) cond

let allows_exists prog =
  match Prog.exists prog with
  | None -> None
  | Some c -> Some (allows prog c)
