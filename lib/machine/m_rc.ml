(* A release-consistency machine (Gharachorloo et al., ISCA 1990 — the
   companion model the paper's conclusions anticipate under "other
   synchronization models").

   Synchronization operations are split by direction:
   - a *release* (sync write, or the write side of a sync RMW) waits for
     all the processor's previous accesses to be globally performed before
     it commits;
   - an *acquire* (sync read, sync await) commits at once; in-order issue
     makes everything after it wait for it, but it does not wait for the
     processor's own previous accesses.

   This is weaker than Definition-1 weak ordering (acquires do not drain)
   and incomparable to the paper's def2 (no reservations; releases stall
   the issuer).  Its contract is DRF1: read-only synchronization carries no
   release obligation, exactly matching the machine's treatment — the test
   suite checks that it appears SC to every DRF1 program. *)

module Smap = Exp.Smap

type pending = { wloc : string; wval : int }

type proc = {
  next : int;
  regs : int Smap.t;
  pending : pending list;  (** issue order, oldest first *)
}

type state = { memory : int Smap.t; procs : proc array }

let name = "rc"

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
      (* Acquires: atomic at once, no drain of the processor's own pending
         writes — but still forwarding from them (intra-processor
         dependencies are preserved). *)
      | Instr.Load { kind = Instr.Sync; loc; reg } ->
          let v = visible st p loc in
          [ advance ~regs:(Smap.add reg v) st p ]
      | Instr.Await { kind = Instr.Sync; loc; expect; reg } ->
          if visible st p loc = expect then
            let regs =
              match reg with Some r -> Smap.add r expect | None -> fun x -> x
            in
            [ advance ~regs st p ]
          else []
      (* Releases (and RMWs, which contain a release): drain first. *)
      | Instr.Store { kind = Instr.Sync; loc; value } ->
          if drained then begin
            let v = Exp.eval pr.regs value in
            let st = { st with memory = Smap.add loc v st.memory } in
            [ advance st p ]
          end
          else []
      | Instr.Rmw { loc; reg; value; _ } ->
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

(* Globally perform one pending write; same-location writes leave in issue
   order. *)
let perform st p =
  let pr = st.procs.(p) in
  let rec candidates seen_locs before acc = function
    | [] -> acc
    | pw :: rest ->
        let acc =
          if List.mem pw.wloc seen_locs then acc
          else begin
            let st' = { st with memory = Smap.add pw.wloc pw.wval st.memory } in
            with_proc st' p { pr with pending = List.rev_append before rest }
            :: acc
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
