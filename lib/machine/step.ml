(* What the machines share now that a state is its packed key (see
   {!Layout}): a successor is a copy of the parent key with the few slots
   the transition changes rewritten, and the in-order write-buffer
   machines differ only in which instructions wait for an empty buffer and
   in whether the buffer drains in FIFO order. *)

let label p id loc write sync =
  {
    Machine_sig.a_proc = p;
    a_id = id;
    a_loc = loc;
    a_write = write;
    a_sync = sync;
  }

(* Processor [p]'s view of [op]'s location: its newest buffered write
   there, else memory. *)
let visible l s p (op : Layout.op) =
  let off = Layout.forward l s p op.lid in
  Layout.get l s (if off >= 0 then off else op.mem)

(* A copy of [s] with [p]'s program counter (counter 0) at [pc + 1]. *)
let advance l s p pc =
  let b = Bytes.copy s in
  Layout.set_counter l b p 0 (pc + 1);
  b

(* Whether one of [p]'s entries [j..i-1] writes [lid]. *)
let rec older l s p lid j i =
  j < i && (Layout.entry_lid l s p j = lid || older l s p lid (j + 1) i)

(* [drains l s p f] calls [f slot lid] on each of [p]'s buffered writes
   that may perform now — the oldest of each location, since same-location
   writes of one processor perform in issue order — oldest first. *)
let drains l s p f =
  for i = 0 to Layout.buffered l s p - 1 do
    let lid = Layout.entry_lid l s p i in
    if not (older l s p lid 0 i) then f i lid
  done

(* The pinned successor order of the in-order machines (snapshots and the
   reduction's sleep sets depend on it): per processor ascending, the
   issue of its next instruction, then its drains, newest first.  [drain]
   fires [f slot lid] on the drainable entries oldest first; [perform b p
   slot] finishes a drain on the copy [b]. *)
let in_order l k ~labels ~issue ~drain ~perform ~drain_sync =
  let s = Bytes.unsafe_of_string k in
  let code = Layout.code l in
  let acc = ref [] in
  for p = Array.length code - 1 downto 0 do
    drain l s p (fun slot lid ->
        let b = Bytes.copy s in
        perform l b p slot;
        acc :=
          ( label p (-(slot + 1)) (Layout.loc_name l lid) true drain_sync,
            Bytes.unsafe_to_string b )
          :: !acc);
    let pc = Layout.counter l s p 0 in
    if pc < Array.length code.(p) then
      match issue l s p pc code.(p).(pc) with
      | Some b -> acc := (labels.(p).(pc), Bytes.unsafe_to_string b) :: !acc
      | None -> ()
  done;
  !acc

(* The reduction oracles' static facts are tables keyed by location byte,
   [lid_width] wide. *)
let lid_width code =
  1
  + Array.fold_left
      (Array.fold_left (fun m (op : Layout.op) -> max m op.lid))
      0 code

(* [remaining l].(q).(j).(lid): bit 0 set iff thread [q] accesses that
   location at an instruction index [>= j], bit 1 iff it writes it there
   ([j] may be the thread's length). *)
let remaining =
  Layout.memo (fun l ->
      let code = Layout.code l in
      let width = lid_width code in
      Array.map
        (fun ops ->
          let n = Array.length ops in
          let rows = Array.make (n + 1) (Array.make width 0) in
          for j = n - 1 downto 0 do
            let r = Array.copy rows.(j + 1) and (op : Layout.op) = ops.(j) in
            if op.lid > 0 then
              r.(op.lid) <-
                (r.(op.lid) lor if Instr.is_write op.instr then 3 else 1);
            rows.(j) <- r
          done;
          rows)
        code)

(* Whether no processor but [p], from [q] on, has a remaining access
   ([bit] 1) or write ([bit] 2) of [lid] or a buffered write to it, with
   [rem = remaining l]: then nothing another processor does can touch the
   location again. *)
let rec foreign_clear l rem s ~bit p lid q =
  q = Layout.nprocs l
  || (q = p
     || rem.(q).(Layout.counter l s q 0).(lid) land bit = 0
        && Layout.forward l s q lid < 0)
     && foreign_clear l rem s ~bit p lid (q + 1)

(* An in-order run is complete once every thread ran past its last
   instruction with an empty buffer. *)
let rec complete l s code p =
  p = Array.length code
  || Layout.counter l s p 0 >= Array.length code.(p)
     && Layout.buffered l s p = 0
     && complete l s code (p + 1)

let final l k =
  let s = Bytes.unsafe_of_string k in
  if complete l s (Layout.code l) 0 then Some (Layout.final l s) else None

module type RULES = sig
  val name : string

  val waits : Instr.t -> bool
  (** Which loads, stores and awaits wait for an empty buffer and then act
      on memory directly.  RMWs, locks and fences always do; every other
      store joins the buffer, and every other read sees the issuer's
      newest buffered write to its location. *)

  val fifo : bool
  (** Only the oldest buffered write may perform; otherwise the oldest
      write of each location may. *)
end

module In_order (R : RULES) = struct
  let name = R.name

  let shape =
    { Layout.counters = 1; mask = false; buffer = Some 0; reservations = false }

  let atomic = function
    | Instr.Rmw _ | Instr.Lock _ | Instr.Fence -> true
    | i -> R.waits i

  (* Labels: a buffered store and a fence touch only the issuer's own
     buffer, so they are local; reads read their location; atomic stores,
     RMWs, locks and drains write theirs.  No step touches anything global
     beyond its one location, so no label needs [a_sync]. *)
  let labels =
    Layout.memo (fun l ->
        Array.mapi
          (fun p ->
            Array.mapi (fun j (op : Layout.op) ->
                let loc = Option.value (Instr.location op.instr) ~default:"" in
                match op.instr with
                | Instr.Fence -> label p j "" false false
                | Instr.Store _ when not (atomic op.instr) ->
                    label p j "" false false
                | Instr.Load _ | Instr.Await _ -> label p j loc false false
                | Instr.Store _ | Instr.Rmw _ | Instr.Lock _ ->
                    label p j loc true false))
          (Layout.code l))

  (* The successor of issuing [op], or [None] while it is blocked (an
     await unsatisfied, a lock held, an atomic step waiting on the
     buffer). *)
  let issue l s p pc (op : Layout.op) =
    if atomic op.instr && Layout.buffered l s p > 0 then None
    else
      match op.instr with
      | Instr.Load _ ->
          let b = advance l s p pc in
          Layout.put l b op.dst (visible l s p op);
          Some b
      | Instr.Store _ ->
          let v = Layout.eval l s op.value in
          let b = advance l s p pc in
          if atomic op.instr then Layout.put l b op.mem v
          else ignore (Layout.push l b p op.lid v);
          Some b
      | Instr.Await { expect; _ } ->
          if visible l s p op <> expect then None
          else
            let b = advance l s p pc in
            if op.dst >= 0 then Layout.put l b op.dst expect;
            Some b
      | Instr.Rmw _ ->
          let b = advance l s p pc in
          Layout.put l b op.dst (Layout.get l s op.mem);
          Layout.put l b op.mem (Layout.eval l b op.value);
          Some b
      | Instr.Lock _ ->
          if Layout.get l s op.mem <> 0 then None
          else
            let b = advance l s p pc in
            Layout.put l b op.mem 1;
            Some b
      | Instr.Fence -> Some (advance l s p pc)

  let head l s p f =
    if Layout.buffered l s p > 0 then f 0 (Layout.entry_lid l s p 0)

  let successors l k =
    in_order l k ~labels:(labels l) ~issue
      ~drain:(if R.fifo then head else drains)
      ~perform:Layout.drain ~drain_sync:false

  let final = final
end
