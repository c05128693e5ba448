(* The paper's implementation (Sections 5.1–5.3) as an abstract machine —
   weakly ordered with respect to DRF0 by Definition 2, yet violating
   conditions 2 and 3 of Definition 1.

   The machine separates a synchronization operation's *commit* (its atomic
   update of memory, at issue) from the *global performance* of the data
   writes issued before it.  A processor never stalls for its own pending
   writes: committing a sync operation S on location l while writes are
   pending instead places a *reservation* on l (the reserve bit of Section
   5.3), recording a watermark — the youngest pending write at commit time
   (the paper's "more dynamic solution" for distinguishing accesses
   generated before S from those after).  A later synchronization operation
   on l by another processor blocks until every reserved write up to the
   watermark is globally performed — condition 5.  Reads block, so
   condition 5's "all reads of Pi before S are committed" holds at issue.

   [read_only_syncs_reserve] selects between the base implementation (all
   sync operations are treated as writes and place reservations) and the
   Section 6 refinement in which read-only synchronization operations do
   not order the issuing processor's previous accesses (they still *honour*
   reservations — the acquire side — but do not place them). *)

module Smap = Exp.Smap

module type CONFIG = sig
  val machine_name : string

  val read_only_syncs_reserve : bool
end

module Make (C : CONFIG) = struct
  type pending = { wloc : string; wval : int; seq : int }
  type resv = { rproc : int; watermark : int }

  type proc = {
    next : int;
    regs : int Smap.t;
    pending : pending list;  (** issue order, oldest first *)
    nseq : int;  (** next write sequence number *)
  }

  type state = {
    memory : int Smap.t;
    procs : proc array;
    resvs : (string * resv list) list;  (** sorted by location *)
  }

  let name = C.machine_name

  let initial prog =
    {
      memory = Prog.initial_memory prog;
      procs =
        Array.init (Prog.num_threads prog) (fun _ ->
            { next = 0; regs = Smap.empty; pending = []; nseq = 0 });
      resvs = [];
    }

  let read_mem memory loc =
    match Smap.find_opt loc memory with Some v -> v | None -> 0

  let forwarded pending loc =
    List.fold_left
      (fun acc pw -> if String.equal pw.wloc loc then Some pw.wval else acc)
      None pending

  let visible st p loc =
    match forwarded st.procs.(p).pending loc with
    | Some v -> v
    | None -> read_mem st.memory loc

  (* Drop satisfied reservations: a reservation stands only while its
     processor still has pending writes at or below the watermark. *)
  let cleanup st =
    let live r =
      List.exists
        (fun pw -> pw.seq <= r.watermark)
        st.procs.(r.rproc).pending
    in
    let resvs =
      List.filter_map
        (fun (l, rs) ->
          match List.filter live rs with [] -> None | rs -> Some (l, rs))
        st.resvs
    in
    { st with resvs }

  let blocked_by_reservation st p loc =
    match List.assoc_opt loc st.resvs with
    | None -> false
    | Some rs -> List.exists (fun r -> r.rproc <> p) rs

  (* Place (or refresh) [p]'s reservation on [loc], if it has pending
     writes. *)
  let reserve st p loc =
    match st.procs.(p).pending with
    | [] -> st
    | pending ->
        let watermark =
          List.fold_left (fun m pw -> max m pw.seq) min_int pending
        in
        let mine = { rproc = p; watermark } in
        let rec update = function
          | [] -> [ (loc, [ mine ]) ]
          | (l, rs) :: rest when String.equal l loc ->
              let rs = mine :: List.filter (fun r -> r.rproc <> p) rs in
              let rs = List.sort (fun a b -> compare a.rproc b.rproc) rs in
              (l, rs) :: rest
          | entry :: rest -> entry :: update rest
        in
        let resvs =
          if List.mem_assoc loc st.resvs then update st.resvs
          else List.sort (fun (a, _) (b, _) -> String.compare a b)
              ((loc, [ mine ]) :: st.resvs)
        in
        { st with resvs }

  let with_proc st p proc =
    let procs = Array.copy st.procs in
    procs.(p) <- proc;
    { st with procs }

  let advance ?(regs = fun r -> r) ?(pending = fun w -> w) ?(nseq = fun n -> n)
      st p =
    let pr = st.procs.(p) in
    with_proc st p
      {
        next = pr.next + 1;
        regs = regs pr.regs;
        pending = pending pr.pending;
        nseq = nseq pr.nseq;
      }

  (* Commit a synchronization operation: check foreign reservations, update
     memory atomically, optionally place our own reservation. *)
  let commit_sync st p loc ~reserves ~update =
    if blocked_by_reservation st p loc then []
    else
      match update (read_mem st.memory loc) with
      | None -> []
      | Some (new_mem_value, regs) ->
          let st =
            match new_mem_value with
            | Some v -> { st with memory = Smap.add loc v st.memory }
            | None -> st
          in
          let st = advance ~regs st p in
          let st = if reserves then reserve st p loc else st in
          [ cleanup st ]

  let issue prog st p =
    let pr = st.procs.(p) in
    match List.nth_opt (Prog.thread prog p) pr.next with
    | None -> []
    | Some instr -> (
        match instr with
        | Instr.Load { kind = Instr.Data; loc; reg } ->
            let v = visible st p loc in
            [ advance ~regs:(Smap.add reg v) st p ]
        | Instr.Store { kind = Instr.Data; loc; value } ->
            let v = Exp.eval pr.regs value in
            [
              advance
                ~pending:(fun w ->
                  w @ [ { wloc = loc; wval = v; seq = pr.nseq } ])
                ~nseq:(fun n -> n + 1)
                st p;
            ]
        | Instr.Await { kind = Instr.Data; loc; expect; reg } ->
            if visible st p loc = expect then
              let regs =
                match reg with Some r -> Smap.add r expect | None -> fun x -> x
              in
              [ advance ~regs st p ]
            else []
        | Instr.Load { kind = Instr.Sync; loc; reg } ->
            commit_sync st p loc ~reserves:C.read_only_syncs_reserve
              ~update:(fun v -> Some (None, Smap.add reg v))
        | Instr.Await { kind = Instr.Sync; loc; expect; reg } ->
            commit_sync st p loc ~reserves:C.read_only_syncs_reserve
              ~update:(fun v ->
                if v <> expect then None
                else
                  let regs =
                    match reg with
                    | Some r -> Smap.add r expect
                    | None -> fun x -> x
                  in
                  Some (None, regs))
        | Instr.Store { kind = Instr.Sync; loc; value } ->
            let v = Exp.eval pr.regs value in
            commit_sync st p loc ~reserves:true ~update:(fun _ ->
                Some (Some v, fun r -> r))
        | Instr.Rmw { loc; reg; value; _ } ->
            commit_sync st p loc ~reserves:true ~update:(fun old ->
                let regs = Smap.add reg old pr.regs in
                let v = Exp.eval regs value in
                Some (Some v, fun _ -> regs))
        | Instr.Lock { loc } ->
            commit_sync st p loc ~reserves:true ~update:(fun v ->
                if v <> 0 then None else Some (Some 1, fun r -> r))
        | Instr.Fence -> if pr.pending = [] then [ cleanup (advance st p) ] else [])

  (* Globally perform a pending write; same-location writes of a processor
     leave in issue order. *)
  let perform st p =
    let pr = st.procs.(p) in
    let rec candidates seen_locs before acc = function
      | [] -> acc
      | pw :: rest ->
          let acc =
            if List.mem pw.wloc seen_locs then acc
            else begin
              let st' =
                { st with memory = Smap.add pw.wloc pw.wval st.memory }
              in
              let st' =
                with_proc st' p { pr with pending = List.rev_append before rest }
              in
              cleanup st' :: acc
            end
          in
          candidates (pw.wloc :: seen_locs) (pw :: before) acc rest
    in
    candidates [] [] [] pr.pending

  let successors prog st =
    let acc = ref [] in
    for p = Array.length st.procs - 1 downto 0 do
      acc := issue prog st p @ perform st p @ !acc
    done;
    !acc

  let final prog st =
    let complete =
      Array.to_list st.procs
      |> List.mapi (fun p pr ->
             pr.pending = [] && pr.next >= List.length (Prog.thread prog p))
      |> List.for_all Fun.id
    in
    if not complete then None
    else
      Some
        (Final.make ~memory:st.memory
           ~regs:(Array.map (fun pr -> pr.regs) st.procs))

  (* Sequence numbers are per-processor counters, so they move with the
     processor unchanged; a reservation is a cell of the (location,
     processor) matrix holding its watermark. *)
  let shape =
    { Layout.counters = 2; mask = false; buffer = Some 1; reservations = true }

  let canon l st =
    let b = Layout.create l in
    Layout.set_memory l b st.memory;
    Array.iteri
      (fun p pr ->
        Layout.set_counter l b p 0 pr.next;
        Layout.set_counter l b p 1 pr.nseq;
        Layout.set_regs l b p pr.regs;
        List.iteri
          (fun i w ->
            Layout.set_entry l b p i w.wloc w.wval;
            Layout.set_entry_counter l b p i 0 w.seq)
          pr.pending)
      st.procs;
    List.iter
      (fun (loc, rs) ->
        List.iter
          (fun r -> Layout.set_reservation l b ~loc ~proc:r.rproc r.watermark)
          rs)
      st.resvs;
    Layout.key b

  (* --- partial-order reduction oracle -----------------------------------

     Liveness invariant: in every reachable state, every reservation is
     live (its owner still has a pending write at or below the
     watermark).  Initially there are none; [commit_sync] and [perform] —
     the only steps that create reservations or drop pending writes — end
     in [cleanup], and data issues only append writes with sequence
     numbers above every existing watermark.  Hence [cleanup] is a no-op
     inside fences and sync commits, which makes the labels below honest.

     Labels (issues carry [a_id = next], drains [-(slot + 1)], both stable
     because [canon] includes the pending list):

     - data store issue, fence: local ([a_loc = ""]) — they touch only the
       issuing processor's registers/pending/counter, and no foreign step
       reads those (cleanup liveness is unaffected: a fresh write's
       sequence number exceeds every watermark).
     - data load / await of [l]: read [l].
     - sync-class issues: [a_sync] — they consult and update the global
       reservation table.
     - drains of [l]: write [l]; [a_sync] iff the program has any
       synchronization-class instruction, because draining can drop the
       processor's own reservations (on any location) and unblock foreign
       commits — an effect invisible to a plain [(loc, write)] label.

     Ample classes, each of which commutes with every step another
     processor — and, for drains, the same processor — can fire first,
     stays enabled, and occurs in every complete run:

     - data store issue: local, unconditionally enabled, must eventually
       issue.  Own drains commute with it: the new write's sequence number
       keeps it out of existing watermarks and it drains strictly after
       same-location predecessors.
     - fence: local; enabled only once [pending = []], so no own drain can
       precede it, and no own issue can (program order).
     - data load of [l] when no other processor has a pending write on
       [l] or a not-yet-issued write of [l]: no foreign step can change
       [l] first, and own drains preserve the visible value (forwarding
       returns the newest same-location entry; draining removes the
       oldest, and when they coincide memory then holds that value).
     - drain of [l] when the reservation table is empty, the processor
       has no synchronization-class instruction left to issue (else a
       later own commit would build a reservation whose liveness the
       drain changes), and no other processor has a pending write on [l]
       or any remaining access of [l].  Pending writes must drain before
       the run completes, so it occurs in every complete run.

     Data awaits (value-blocking) and sync-class issues (reservation
     traffic) are never ample. *)

  let issue_labeled prog st p =
    let pr = st.procs.(p) in
    match List.nth_opt (Prog.thread prog p) pr.next with
    | None -> []
    | Some instr ->
        let a_loc, a_write, a_sync =
          match instr with
          | Instr.Store { kind = Instr.Data; _ } | Instr.Fence ->
              ("", false, false)
          | Instr.Load { kind = Instr.Data; loc; _ }
          | Instr.Await { kind = Instr.Data; loc; _ } ->
              (loc, false, false)
          | Instr.Load { kind = Instr.Sync; loc; _ }
          | Instr.Await { kind = Instr.Sync; loc; _ } ->
              (loc, C.read_only_syncs_reserve, true)
          | Instr.Store { kind = Instr.Sync; loc; _ }
          | Instr.Rmw { loc; _ }
          | Instr.Lock { loc } ->
              (loc, true, true)
        in
        let a =
          { Machine_sig.a_proc = p; a_id = pr.next; a_loc; a_write; a_sync }
        in
        List.map (fun st' -> (a, st')) (issue prog st p)

  let perform_labeled ~drain_sync st p =
    let pr = st.procs.(p) in
    let rec candidates i seen_locs before acc = function
      | [] -> acc
      | pw :: rest ->
          let acc =
            if List.mem pw.wloc seen_locs then acc
            else begin
              let st' =
                { st with memory = Smap.add pw.wloc pw.wval st.memory }
              in
              let st' =
                with_proc st' p { pr with pending = List.rev_append before rest }
              in
              ( {
                  Machine_sig.a_proc = p;
                  a_id = -(i + 1);
                  a_loc = pw.wloc;
                  a_write = true;
                  a_sync = drain_sync;
                },
                cleanup st' )
              :: acc
            end
          in
          candidates (i + 1) (pw.wloc :: seen_locs) (pw :: before) acc rest
    in
    candidates 0 [] [] [] pr.pending

  let successors_labeled ~drain_sync prog st =
    let acc = ref [] in
    for p = Array.length st.procs - 1 downto 0 do
      acc := issue_labeled prog st p @ perform_labeled ~drain_sync st p @ !acc
    done;
    !acc

  let por prog =
    let info = Por_static.cached prog in
    let nthreads = Prog.num_threads prog in
    let has_sync =
      let rec loop p =
        p < nthreads
        && (Por_static.sync_remains info ~p ~j:0 || loop (p + 1))
      in
      loop 0
    in
    (* No other processor holds a pending write on [loc], nor a
       not-yet-issued write ([write_only]) / access of it. *)
    let foreign_clear ~write_only st p loc =
      let ok = ref true in
      Array.iteri
        (fun q pr ->
          if q <> p && !ok then
            if
              (if write_only then
                 Por_static.write_remains info ~p:q ~j:pr.next loc
               else Por_static.access_remains info ~p:q ~j:pr.next loc)
              || List.exists (fun pw -> String.equal pw.wloc loc) pr.pending
            then ok := false)
        st.procs;
      !ok
    in
    let ample st succs =
      List.find_opt
        (fun ((a : Machine_sig.action), _) ->
          if a.a_loc = "" then true
          else if a.a_id >= 0 then
            match info.Por_static.instrs.(a.a_proc).(a.a_id) with
            | Instr.Load { kind = Instr.Data; _ } ->
                foreign_clear ~write_only:true st a.a_proc a.a_loc
            | _ -> false
          else
            st.resvs = []
            && (not
                  (Por_static.sync_remains info ~p:a.a_proc
                     ~j:st.procs.(a.a_proc).next))
            && foreign_clear ~write_only:false st a.a_proc a.a_loc)
        succs
    in
    Some
      {
        Machine_sig.successors_labeled =
          successors_labeled ~drain_sync:has_sync prog;
        ample;
      }
end

module Base = Make (struct
  let machine_name = "def2"
  let read_only_syncs_reserve = true
end)

module Read_sync_relaxed = Make (struct
  let machine_name = "def2-rs"
  let read_only_syncs_reserve = false
end)
