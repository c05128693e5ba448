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

module type CONFIG = sig
  val machine_name : string

  val read_only_syncs_reserve : bool
end

module Make (C : CONFIG) = struct
  let name = C.machine_name

  (* Counter 0 is the program counter, counter 1 the next write sequence
     number; both move with the processor unchanged.  A buffer entry
     carries its write's sequence number, and a reservation is a cell of
     the (location, processor) matrix holding its watermark. *)
  let shape =
    { Layout.counters = 2; mask = false; buffer = Some 1; reservations = true }

  (* Whether one of [q]'s pending writes from entry [i] on is at or below
     the watermark [w]. *)
  let rec live l b q w i =
    i < Layout.buffered l b q
    && (Layout.entry_counter l b q i 0 <= w || live l b q w (i + 1))

  (* Drop satisfied reservations: a reservation stands only while its
     processor still has pending writes at or below the watermark. *)
  let cleanup l b =
    for row = 0 to Layout.reservation_rows l - 1 do
      for q = 0 to Layout.nprocs l - 1 do
        let w = Layout.reservation l b ~row ~proc:q in
        if w >= 0 && not (live l b q w 0) then
          Layout.clear_reservation l b ~row ~proc:q
      done
    done

  (* Whether a processor other than [p], from [q] on, holds a reservation
     in [row]. *)
  let rec blocked_by_reservation l s p row q =
    q < Layout.nprocs l
    && ((q <> p && Layout.reservation l s ~row ~proc:q >= 0)
       || blocked_by_reservation l s p row (q + 1))

  (* Place (or refresh) [p]'s reservation on [row], if it has pending
     writes: the watermark is the youngest of them. *)
  let reserve l b p row =
    let n = Layout.buffered l b p in
    if n > 0 then begin
      let w = ref 0 in
      for i = 0 to n - 1 do
        w := max !w (Layout.entry_counter l b p i 0)
      done;
      Layout.set_reservation l b ~row ~proc:p !w
    end

  (* Commit a synchronization operation: check foreign reservations,
     update memory and registers atomically ([update]), optionally place
     our own reservation. *)
  let commit_sync l s p pc (op : Layout.op) ~reserves ~update =
    if blocked_by_reservation l s p op.row 0 then None
    else begin
      let b = Step.advance l s p pc in
      update b;
      if reserves then reserve l b p op.row;
      cleanup l b;
      Some b
    end

  let issue l s p pc (op : Layout.op) =
    match op.instr with
    | Instr.Load { kind = Instr.Data; _ } ->
        let b = Step.advance l s p pc in
        Layout.put l b op.dst (Step.visible l s p op);
        Some b
    | Instr.Store { kind = Instr.Data; _ } ->
        let v = Layout.eval l s op.value in
        let seq = Layout.counter l s p 1 in
        let b = Step.advance l s p pc in
        Layout.set_entry_counter l b p (Layout.push l b p op.lid v) 0 seq;
        Layout.set_counter l b p 1 (seq + 1);
        Some b
    | Instr.Await { kind = Instr.Data; expect; _ } ->
        if Step.visible l s p op <> expect then None
        else
          let b = Step.advance l s p pc in
          if op.dst >= 0 then Layout.put l b op.dst expect;
          Some b
    | Instr.Load _ ->
        commit_sync l s p pc op ~reserves:C.read_only_syncs_reserve
          ~update:(fun b -> Layout.put l b op.dst (Layout.get l s op.mem))
    | Instr.Await { expect; _ } ->
        if Layout.get l s op.mem <> expect then None
        else
          commit_sync l s p pc op ~reserves:C.read_only_syncs_reserve
            ~update:(fun b -> if op.dst >= 0 then Layout.put l b op.dst expect)
    | Instr.Store _ ->
        let v = Layout.eval l s op.value in
        commit_sync l s p pc op ~reserves:true ~update:(fun b ->
            Layout.put l b op.mem v)
    | Instr.Rmw _ ->
        commit_sync l s p pc op ~reserves:true ~update:(fun b ->
            Layout.put l b op.dst (Layout.get l s op.mem);
            Layout.put l b op.mem (Layout.eval l b op.value))
    | Instr.Lock _ ->
        if Layout.get l s op.mem <> 0 then None
        else
          commit_sync l s p pc op ~reserves:true ~update:(fun b ->
              Layout.put l b op.mem 1)
    | Instr.Fence ->
        if Layout.buffered l s p > 0 then None
        else
          let b = Step.advance l s p pc in
          cleanup l b;
          Some b

  (* Globally perform a pending write; same-location writes of a processor
     leave in issue order. *)
  let perform l b p slot =
    Layout.drain l b p slot;
    cleanup l b

  (* --- partial-order reduction oracle -----------------------------------

     Liveness invariant: in every reachable state, every reservation is
     live (its owner still has a pending write at or below the
     watermark).  Initially there are none; sync commits and drains —
     the only steps that create reservations or drop pending writes — end
     in [cleanup], and data issues only append writes with sequence
     numbers above every existing watermark.  Hence [cleanup] is a no-op
     inside fences and sync commits, which makes the labels below honest.

     Labels (issues carry [a_id = next], drains [-(slot + 1)], both stable
     because the key holds the pending buffer):

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

  (* Issue labels, and whether the program has any synchronization-class
     instruction (then drains are [a_sync]). *)
  let static =
    Layout.memo (fun l ->
        let code = Layout.code l in
        let labels =
          Array.mapi
            (fun p ->
              Array.mapi (fun j (op : Layout.op) ->
                  let loc =
                    Option.value (Instr.location op.instr) ~default:""
                  in
                  match op.instr with
                  | Instr.Store { kind = Instr.Data; _ } | Instr.Fence ->
                      Step.label p j "" false false
                  | Instr.Load { kind = Instr.Data; _ }
                  | Instr.Await { kind = Instr.Data; _ } ->
                      Step.label p j loc false false
                  | Instr.Load _ | Instr.Await _ ->
                      Step.label p j loc C.read_only_syncs_reserve true
                  | Instr.Store _ | Instr.Rmw _ | Instr.Lock _ ->
                      Step.label p j loc true true))
            code
        in
        let has_sync =
          Array.exists
            (Array.exists (fun (op : Layout.op) ->
                 Por_static.is_sync_class op.instr))
            code
        in
        (labels, has_sync))

  let successors l k =
    let labels, has_sync = static l in
    Step.in_order l k ~labels ~issue ~drain:Step.drains ~perform
      ~drain_sync:has_sync

  let final = Step.final

  let por l =
    let info = Por_static.cached (Layout.prog l) in
    let code = Layout.code l in
    let ample k succs =
      let s = Bytes.unsafe_of_string k and rem = Step.remaining l in
      List.find_opt
        (fun ((a : Machine_sig.action), _) ->
          let p = a.a_proc in
          if a.a_loc = "" then true
          else if a.a_id >= 0 then
            match code.(p).(a.a_id) with
            | { Layout.instr = Instr.Load { kind = Instr.Data; _ }; lid; _ } ->
                Step.foreign_clear l rem s ~bit:2 p lid 0
            | _ -> false
          else
            (not (Layout.reserved l s))
            && (not
                  (Por_static.sync_remains info ~p
                     ~j:(Layout.counter l s p 0)))
            && Step.foreign_clear l rem s ~bit:1 p
                 (Layout.entry_lid l s p (-a.a_id - 1))
                 0)
        succs
    in
    Some { Machine_sig.ample }
end

module Base = Make (struct
  let machine_name = "def2"
  let read_only_syncs_reserve = true
end)

module Read_sync_relaxed = Make (struct
  let machine_name = "def2-rs"
  let read_only_syncs_reserve = false
end)
