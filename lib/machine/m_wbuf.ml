(* A write-buffer machine: each processor has a FIFO store buffer that
   drains to a single atomic memory at arbitrary times, and reads are
   allowed to pass buffered writes (with forwarding from the processor's
   own buffer).

   This is Figure 1's shared-bus configuration: "the execution is possible
   if ... reads are allowed to pass writes in write buffers".  The machine
   is deliberately naive about synchronization — sync loads and stores go
   through the same buffer, which is why it is *not* weakly ordered with
   respect to DRF0 (atomic RMWs and fences drain the buffer, as on real
   TSO-like hardware). *)

module Smap = Exp.Smap

type proc = {
  next : int;
  regs : int Smap.t;
  wbuf : (string * int) list;  (** oldest first *)
}

type state = { memory : int Smap.t; procs : proc array }

let name = "wbuf"

let initial prog =
  {
    memory = Prog.initial_memory prog;
    procs =
      Array.init (Prog.num_threads prog) (fun _ ->
          { next = 0; regs = Smap.empty; wbuf = [] });
  }

let read_mem memory loc =
  match Smap.find_opt loc memory with Some v -> v | None -> 0

(* Newest buffered write to [loc], if any. *)
let forwarded wbuf loc =
  List.fold_left
    (fun acc (l, v) -> if String.equal l loc then Some v else acc)
    None wbuf

let visible st p loc =
  match forwarded st.procs.(p).wbuf loc with
  | Some v -> v
  | None -> read_mem st.memory loc

let with_proc st p proc =
  let procs = Array.copy st.procs in
  procs.(p) <- proc;
  { st with procs }

let advance ?(regs = fun r -> r) ?(wbuf = fun b -> b) st p =
  let pr = st.procs.(p) in
  with_proc st p { next = pr.next + 1; regs = regs pr.regs; wbuf = wbuf pr.wbuf }

(* One issue successor, or [None] when the next instruction is blocked
   (await unsatisfied, RMW/lock/fence waiting on the buffer). *)
let issue_one instr st p =
  let pr = st.procs.(p) in
  match instr with
  | Instr.Load { loc; reg; _ } ->
      let v = visible st p loc in
      Some (advance ~regs:(Smap.add reg v) st p)
  | Instr.Store { loc; value; _ } ->
      let v = Exp.eval pr.regs value in
      Some (advance ~wbuf:(fun b -> b @ [ (loc, v) ]) st p)
  | Instr.Await { loc; expect; reg; _ } ->
      if visible st p loc = expect then
        let regs =
          match reg with Some r -> Smap.add r expect | None -> fun x -> x
        in
        Some (advance ~regs st p)
      else None
  | Instr.Rmw { loc; reg; value; _ } ->
      if pr.wbuf <> [] then None
      else begin
        let old = read_mem st.memory loc in
        let regs = Smap.add reg old pr.regs in
        let v = Exp.eval regs value in
        let st = { st with memory = Smap.add loc v st.memory } in
        Some (advance ~regs:(fun _ -> regs) st p)
      end
  | Instr.Lock { loc } ->
      if pr.wbuf = [] && read_mem st.memory loc = 0 then begin
        let st = { st with memory = Smap.add loc 1 st.memory } in
        Some (advance st p)
      end
      else None
  | Instr.Fence -> if pr.wbuf = [] then Some (advance st p) else None

let drain_one st p =
  match st.procs.(p).wbuf with
  | [] -> None
  | (loc, v) :: rest ->
      let st = { st with memory = Smap.add loc v st.memory } in
      Some (with_proc st p { (st.procs.(p)) with wbuf = rest })

(* Successor order (pinned; snapshots and the reduction's sleep sets
   depend on it being deterministic): per processor ascending, issue
   before drain. *)
let successors prog st =
  let instrs = (Por_static.cached prog).Por_static.instrs in
  let acc = ref [] in
  for p = Array.length st.procs - 1 downto 0 do
    (match drain_one st p with Some s -> acc := s :: !acc | None -> ());
    let pr = st.procs.(p) in
    let ins = instrs.(p) in
    if pr.next < Array.length ins then
      match issue_one ins.(pr.next) st p with
      | Some s -> acc := s :: !acc
      | None -> ()
  done;
  !acc

let final prog st =
  let instrs = (Por_static.cached prog).Por_static.instrs in
  let complete = ref true in
  Array.iteri
    (fun p pr ->
      if pr.wbuf <> [] || pr.next < Array.length instrs.(p) then
        complete := false)
    st.procs;
  if not !complete then None
  else
    Some
      (Final.make ~memory:st.memory
         ~regs:(Array.map (fun pr -> pr.regs) st.procs))

(* --- partial-order reduction oracle -------------------------------------

   Transition labels.  A store *issue* only appends to the issuer's own
   buffer — no other processor can observe it — so it is labeled local
   ([a_loc = ""]), like a fence; the write becomes visible at the *drain*,
   which carries the location.  Loads and awaits read their location
   (possibly forwarded, but forwarding only consults the issuer's own
   buffer).  RMW and lock are reads-and-writes of their location.  No
   transition touches global structures beyond its one location, so no
   label needs [a_sync].

   Ample selection, scanned in successor order; each class's soundness:

   - any local step (store issue, fence): commutes with every foreign
     step by construction, and with the issuer's own drains — append and
     head-pop commute, and a fence only fires on an empty buffer, so no
     own drain can precede it; every complete run performs it.
   - a load of [l] when no other processor has an unissued instruction
     accessing... writing [l] nor a buffered write to [l]: every foreign
     step in any run is then independent of it (read-read sharing is
     fine), and the issuer's own drains commute with it by the
     forwarding argument (forwarding reads the newest buffered write,
     draining pops the oldest; when they coincide the drained value is
     exactly the one forwarded).
   - a head drain of [(l, v)] when no other processor has an unissued
     instruction accessing [l] nor a buffered write to [l]: foreign
     steps never touch [l] again; the issuer's own loads/awaits of [l]
     forward past it, its stores append behind it, and its RMW/lock/
     fence need the whole buffer empty so cannot fire before the head
     drains.

   Awaits, RMWs and locks are never chosen: they block on conditions
   foreign writes can change, so firing them alone is not outcome-
   preserving in general. *)

let successors_labeled prog st =
  let instrs = (Por_static.cached prog).Por_static.instrs in
  let acc = ref [] in
  for p = Array.length st.procs - 1 downto 0 do
    let pr = st.procs.(p) in
    (match drain_one st p with
    | Some s ->
        let loc = fst (List.hd pr.wbuf) in
        acc :=
          ( {
              Machine_sig.a_proc = p;
              a_id = -1;
              a_loc = loc;
              a_write = true;
              a_sync = false;
            },
            s )
          :: !acc
    | None -> ());
    let ins = instrs.(p) in
    if pr.next < Array.length ins then
      let instr = ins.(pr.next) in
      match issue_one instr st p with
      | Some s ->
          let a_loc, a_write =
            match instr with
            | Instr.Store _ | Instr.Fence -> ("", false)
            | Instr.Load { loc; _ } | Instr.Await { loc; _ } -> (loc, false)
            | Instr.Rmw { loc; _ } | Instr.Lock { loc } -> (loc, true)
          in
          acc :=
            ( {
                Machine_sig.a_proc = p;
                a_id = pr.next;
                a_loc;
                a_write;
                a_sync = false;
              },
              s )
            :: !acc
      | None -> ()
  done;
  !acc

let por prog =
  let info = Por_static.cached prog in
  (* No processor besides [p] ever touches [loc] again: no unissued
     instruction ([write_only]: no writing instruction) and no buffered
     write. *)
  let foreign_clear ~write_only st p loc =
    let ok = ref true in
    Array.iteri
      (fun q pr ->
        if q <> p && !ok then
          if
            (if write_only then
               Por_static.write_remains info ~p:q ~j:pr.next loc
             else Por_static.access_remains info ~p:q ~j:pr.next loc)
            || List.exists (fun (l, _) -> String.equal l loc) pr.wbuf
          then ok := false)
      st.procs;
    !ok
  in
  let ample st succs =
    List.find_opt
      (fun ((a : Machine_sig.action), _) ->
        if a.a_loc = "" then true
        else if a.a_id < 0 then
          foreign_clear ~write_only:false st a.a_proc a.a_loc
        else
          match info.Por_static.instrs.(a.a_proc).(a.a_id) with
          | Instr.Load _ -> foreign_clear ~write_only:true st a.a_proc a.a_loc
          | _ -> false)
      succs
  in
  Some
    { Machine_sig.successors_labeled = successors_labeled prog; ample }

let shape =
  { Layout.counters = 1; mask = false; buffer = Some 0; reservations = false }

let canon l st =
  let b = Layout.create l in
  Layout.set_memory l b st.memory;
  Array.iteri
    (fun p pr ->
      Layout.set_counter l b p 0 pr.next;
      Layout.set_regs l b p pr.regs;
      List.iteri (fun i (loc, v) -> Layout.set_entry l b p i loc v) pr.wbuf)
    st.procs;
  Layout.key b
