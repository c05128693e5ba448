(* An out-of-order machine: every access executes atomically against a
   single memory, but a processor may execute its instructions in any order
   that respects (a) register dependencies (true, anti and output — the
   "simple interlock logic" of Figure 1's caption), (b) program order
   between same-location accesses, and (c) fences.

   This models Figure 1's general-interconnection-network configurations,
   where accesses issued in program order reach memory modules in a
   different order.  Synchronization operations receive no special
   treatment — naive hardware — so the machine is not weakly ordered with
   respect to anything; it exists to demonstrate the violations of
   Figure 1. *)

let name = "ooo"

(* The executed bitmask indexes instructions; automorphisms map thread [p]'s
   instruction [i] to the image thread's instruction [i], so the mask moves
   with the processor unchanged. *)
let shape =
  { Layout.counters = 0; mask = true; buffer = None; reservations = false }

(* Per-thread precedence masks: preds.(p).(j) is the bitmask of indices that
   must execute before instruction j of thread p. *)
let preds_of_prog prog =
  Array.init (Prog.num_threads prog) (fun p ->
      let instrs = Array.of_list (Prog.thread prog p) in
      let n = Array.length instrs in
      Array.init n (fun j ->
          let ij = instrs.(j) in
          let mask = ref 0 in
          for i = 0 to j - 1 do
            let ii = instrs.(i) in
            let same_loc =
              match (Instr.location ii, Instr.location ij) with
              | Some a, Some b -> String.equal a b
              | _, _ -> false
            in
            let fence = ii = Instr.Fence || ij = Instr.Fence in
            let true_dep =
              match Instr.target_register ii with
              | Some r -> List.mem r (Instr.source_registers ij)
              | None -> false
            in
            let anti_dep =
              match Instr.target_register ij with
              | Some r -> List.mem r (Instr.source_registers ii)
              | None -> false
            in
            let output_dep =
              match (Instr.target_register ii, Instr.target_register ij) with
              | Some a, Some b -> String.equal a b
              | _, _ -> false
            in
            if same_loc || fence || true_dep || anti_dep || output_dep then
              mask := !mask lor (1 lsl i)
          done;
          !mask))

(* Transition labels: every ready instruction executes atomically against
   memory, so the label is just its location and direction; fences are
   local (they only set an executed bit).  There is no global structure
   beyond memory, so no label needs [a_sync]. *)
let labels code =
  Array.mapi
    (fun p ->
      Array.mapi (fun j (op : Layout.op) ->
          let a_loc, a_write =
            match op.instr with
            | Instr.Fence -> ("", false)
            | Instr.Load { loc; _ } | Instr.Await { loc; _ } -> (loc, false)
            | Instr.Store { loc; _ } | Instr.Rmw { loc; _ } | Instr.Lock { loc }
              ->
                (loc, true)
          in
          Step.label p j a_loc a_write false))
    code

(* Precedence masks and labels depend only on the program. *)
let static =
  Layout.memo (fun l ->
      (preds_of_prog (Layout.prog l), labels (Layout.code l)))

(* A copy of [s] with [p]'s executed mask at [m]. *)
let mark l s p m =
  let b = Bytes.copy s in
  Layout.set_mask l b p m;
  b

(* The successor of executing instruction [j] of [p] (executed mask [ex]),
   or [None] while it is blocked on memory. *)
let execute l s p ex j (op : Layout.op) =
  let m = ex lor (1 lsl j) in
  match op.instr with
  | Instr.Load _ ->
      let b = mark l s p m in
      Layout.put l b op.dst (Layout.get l s op.mem);
      Some b
  | Instr.Store _ ->
      let v = Layout.eval l s op.value in
      let b = mark l s p m in
      Layout.put l b op.mem v;
      Some b
  | Instr.Rmw _ ->
      let b = mark l s p m in
      Layout.put l b op.dst (Layout.get l s op.mem);
      Layout.put l b op.mem (Layout.eval l b op.value);
      Some b
  | Instr.Await { expect; _ } ->
      if Layout.get l s op.mem <> expect then None
      else
        let b = mark l s p m in
        if op.dst >= 0 then Layout.put l b op.dst expect;
        Some b
  | Instr.Lock _ ->
      if Layout.get l s op.mem <> 0 then None
      else
        let b = mark l s p m in
        Layout.put l b op.mem 1;
        Some b
  | Instr.Fence -> Some (mark l s p m)

(* Successor order: per processor ascending, instruction index
   ascending. *)
let successors l k =
  let s = Bytes.unsafe_of_string k in
  let preds, labels = static l in
  let code = Layout.code l in
  let acc = ref [] in
  for p = Array.length code - 1 downto 0 do
    let ex = Layout.mask l s p in
    for j = Array.length code.(p) - 1 downto 0 do
      if ex land (1 lsl j) = 0 && preds.(p).(j) land lnot ex = 0 then
        match execute l s p ex j code.(p).(j) with
        | Some b -> acc := (labels.(p).(j), Bytes.unsafe_to_string b) :: !acc
        | None -> ()
    done
  done;
  !acc

let rec complete l s code p =
  p = Array.length code
  || Layout.mask l s p = (1 lsl Array.length code.(p)) - 1
     && complete l s code (p + 1)

let final l k =
  let s = Bytes.unsafe_of_string k in
  if complete l s (Layout.code l) 0 then Some (Layout.final l s) else None

(* --- partial-order reduction oracle -------------------------------------

   Ample selection, scanned in successor order; each class's soundness
   leans on the precedence masks: any two same-location or register-
   dependent instructions of one processor are ordered by [preds], so a
   *ready* instruction has no unexecuted same-processor conflict — its
   earlier conflicts are executed, and its later ones list it in their
   masks and cannot fire first.  Readiness is monotone (bits only get
   set), so an ample candidate stays enabled while others fire.

   - a ready fence: its mask contains every earlier instruction and it
     appears in every later one's mask, so nothing of its own processor
     can fire before it; it changes nothing but a bit, so every foreign
     step commutes with it; every complete run performs it.
   - a ready load of [l] when no *other* processor has an unexecuted
     instruction writing [l]: all remaining foreign steps are
     independent of it (read-read sharing is fine).
   - a ready store or RMW of [l] when no other processor has an
     unexecuted instruction accessing [l].

   Awaits and locks are never chosen: they block on memory values that
   foreign writes can change. *)

let por l =
  let code = Layout.code l in
  (* Per thread and location byte: the bitmask of the thread's
     instructions that access it ([acc]) and of those that write it
     ([wr]). *)
  let width = Step.lid_width code in
  let acc = Array.map (fun _ -> Array.make width 0) code in
  let wr = Array.map (fun _ -> Array.make width 0) code in
  Array.iteri
    (fun q ->
      Array.iteri (fun j (op : Layout.op) ->
          let bit = 1 lsl j in
          acc.(q).(op.lid) <- acc.(q).(op.lid) lor bit;
          if Instr.is_write op.instr then
            wr.(q).(op.lid) <- wr.(q).(op.lid) lor bit))
    code;
  (* No unexecuted instruction of any processor but [p], from [q] on, is
     in [masks] for [lid]. *)
  let rec foreign_clear masks s p lid q =
    q = Layout.nprocs l
    || (q = p || masks.(q).(lid) land lnot (Layout.mask l s q) = 0)
       && foreign_clear masks s p lid (q + 1)
  in
  let ample k succs =
    let s = Bytes.unsafe_of_string k in
    List.find_opt
      (fun ((a : Machine_sig.action), _) ->
        if a.a_loc = "" then true
        else
          let op = code.(a.a_proc).(a.a_id) in
          match op.instr with
          | Instr.Load _ -> foreign_clear wr s a.a_proc op.lid 0
          | Instr.Store _ | Instr.Rmw _ -> foreign_clear acc s a.a_proc op.lid 0
          | Instr.Await _ | Instr.Lock _ | Instr.Fence -> false)
      succs
  in
  Some { Machine_sig.ample }
