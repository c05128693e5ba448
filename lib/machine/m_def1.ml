(* Definition-1 weak ordering (Dubois, Scheurich & Briggs), as an abstract
   machine:

   - instructions issue in program order, and reads block until their value
     returns (the processor model of the era);
   - data writes issue into a per-processor pending set and become globally
     visible (globally performed) at arbitrary later times, except that
     same-location writes of one processor perform in issue order;
   - condition 2: a synchronization operation cannot issue until all the
     processor's previous data accesses are globally performed (reads are
     blocking, so only pending writes matter);
   - condition 3: since synchronization operations execute atomically at
     issue (they are "strongly ordered"), nothing issues past an incomplete
     sync by construction;
   - condition 1 (sync ops strongly ordered) holds because syncs update the
     single memory atomically. *)

module Smap = Exp.Smap

type pending = { wloc : string; wval : int }

type proc = {
  next : int;
  regs : int Smap.t;
  pending : pending list;  (** issue order, oldest first *)
}

type state = { memory : int Smap.t; procs : proc array }

let name = "def1"

let initial prog =
  {
    memory = Prog.initial_memory prog;
    procs =
      Array.init (Prog.num_threads prog) (fun _ ->
          { next = 0; regs = Smap.empty; pending = [] });
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

let with_proc st p proc =
  let procs = Array.copy st.procs in
  procs.(p) <- proc;
  { st with procs }

let advance ?(regs = fun r -> r) ?(pending = fun w -> w) st p =
  let pr = st.procs.(p) in
  with_proc st p
    { next = pr.next + 1; regs = regs pr.regs; pending = pending pr.pending }

let issue prog st p =
  let pr = st.procs.(p) in
  match List.nth_opt (Prog.thread prog p) pr.next with
  | None -> []
  | Some instr -> (
      let drained = pr.pending = [] in
      match instr with
      | Instr.Load { kind = Instr.Data; loc; reg } ->
          let v = visible st p loc in
          [ advance ~regs:(Smap.add reg v) st p ]
      | Instr.Store { kind = Instr.Data; loc; value } ->
          let v = Exp.eval pr.regs value in
          [ advance ~pending:(fun w -> w @ [ { wloc = loc; wval = v } ]) st p ]
      | Instr.Await { kind = Instr.Data; loc; expect; reg } ->
          if visible st p loc = expect then
            let regs =
              match reg with Some r -> Smap.add r expect | None -> fun x -> x
            in
            [ advance ~regs st p ]
          else []
      | Instr.Load { kind = Instr.Sync; loc; reg } ->
          if drained then begin
            let v = read_mem st.memory loc in
            [ advance ~regs:(Smap.add reg v) st p ]
          end
          else []
      | Instr.Store { kind = Instr.Sync; loc; value } ->
          if drained then begin
            let v = Exp.eval pr.regs value in
            let st = { st with memory = Smap.add loc v st.memory } in
            [ advance st p ]
          end
          else []
      | Instr.Await { kind = Instr.Sync; loc; expect; reg } ->
          if drained && read_mem st.memory loc = expect then
            let regs =
              match reg with Some r -> Smap.add r expect | None -> fun x -> x
            in
            [ advance ~regs st p ]
          else []
      | Instr.Rmw { loc; reg; value; _ } ->
          (* RMWs are atomic, hence routed through the sync discipline
             regardless of kind. *)
          if drained then begin
            let old = read_mem st.memory loc in
            let regs = Smap.add reg old pr.regs in
            let v = Exp.eval regs value in
            let st = { st with memory = Smap.add loc v st.memory } in
            [ advance ~regs:(fun _ -> regs) st p ]
          end
          else []
      | Instr.Lock { loc } ->
          if drained && read_mem st.memory loc = 0 then begin
            let st = { st with memory = Smap.add loc 1 st.memory } in
            [ advance st p ]
          end
          else []
      | Instr.Fence -> if drained then [ advance st p ] else [])

(* Globally perform one pending write of [p].  Any entry may go, except that
   same-location entries leave in issue order (write serialization). *)
let perform st p =
  let pr = st.procs.(p) in
  let rec candidates seen_locs before acc = function
    | [] -> acc
    | pw :: rest ->
        let acc =
          if List.mem pw.wloc seen_locs then acc
          else
            let st' = { st with memory = Smap.add pw.wloc pw.wval st.memory } in
            with_proc st' p { pr with pending = List.rev_append before rest }
            :: acc
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

let shape =
  { Layout.counters = 1; mask = false; buffer = Some 0; reservations = false }

let canon l st =
  let b = Layout.create l in
  Layout.set_memory l b st.memory;
  Array.iteri
    (fun p pr ->
      Layout.set_counter l b p 0 pr.next;
      Layout.set_regs l b p pr.regs;
      List.iteri
        (fun i w -> Layout.set_entry l b p i w.wloc w.wval)
        pr.pending)
    st.procs;
  Layout.key b

(* No reduction oracle: these machines interleave reservation bookkeeping
   (global-perform counters, reservation multisets) with every shared
   access, so a conservative labeling would mark everything [a_sync] and
   suppress nothing.  Explored in full — always sound. *)
let por _ = None
