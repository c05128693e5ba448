(* Feasible synchronization orders of a program.

   DRF0 (Definition 3) quantifies over all executions on the idealized
   architecture, but the happens-before relation of an execution depends
   only on the per-location completion order of its synchronization
   operations.  This module computes exactly the set of such orders that
   are realizable by some complete SC execution, by a memoized depth-first
   search of the idealized semantics.

   The search must be semantic, not purely combinatorial: blocking
   operations ([Await], [Lock]) make some combinatorially-plausible sync
   orders unrealizable (e.g. an await completing before the write it waits
   for), and those orders must not be counted.

   It need not, however, interleave what cannot change a sync order.  At
   a state where some thread's next instruction is a data load or store,
   or a fence, the search fires that instruction alone when either

   (a) it conflicts with nothing any other thread will still do
       ({!Sc.por_candidate}): moved to the front of any complete run it
       changes no value another instruction reads, so the run stays
       complete; or
   (b) no [Await] or [Lock] remains in any thread
       ({!Por_static.blocking_remains}): nothing left can block, so every
       program-order interleaving of the remaining instructions is a
       complete SC run, whatever values it reads.

   Either way the moved event is not a sync operation, so every
   per-location sync projection of the run is unchanged, and the set of
   orders below the state equals the set below its one successor.  Sync
   operations are never fired alone: they are what the orders record. *)

type t = (string * int list) list
(** For each synchronization location (sorted), the sync event ids in
    completion order. *)

module Tuple_set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

let empty_tuple sync_locs = List.map (fun l -> (l, [])) sync_locs

let prepend loc e tuple =
  List.map (fun (l, es) -> if String.equal l loc then (l, e :: es) else (l, es)) tuple

module Memo = Hashtbl.Make (struct
  type t = Sem.key

  let hash = Sem.key_hash
  let equal = Sem.key_equal
end)

(* The thread whose next instruction the search fires alone at [st], if
   any (rules (a) and (b) above). *)
let solo info st =
  match Sc.por_candidate info st with
  | Some p -> Some p
  | None ->
      let threads = st.Sem.threads in
      let n = Array.length threads in
      let rec can_block p =
        p < n
        && (Por_static.blocking_remains info ~p ~j:threads.(p).Sem.next
           || can_block (p + 1))
      in
      let data_next p =
        let instrs = info.Por_static.instrs.(p) in
        let j = threads.(p).Sem.next in
        j < Array.length instrs
        &&
        match instrs.(j) with
        | Instr.Fence
        | Instr.Load { kind = Instr.Data; _ }
        | Instr.Store { kind = Instr.Data; _ } ->
            true
        | _ -> false
      in
      let rec first p =
        if p >= n then None else if data_next p then Some p else first (p + 1)
      in
      if can_block 0 then None else first 0

let feasible prog =
  let evts = Evts.of_prog prog in
  let info = Por_static.cached prog in
  let sync_locs = Prog.sync_locations prog in
  let terminal = Tuple_set.singleton (empty_tuple sync_locs) in
  let ids =
    Array.init (Prog.num_threads prog) (fun p ->
        Array.of_list (Evts.by_proc evts p))
  in
  let memo : Tuple_set.t Memo.t = Memo.create 512 in
  let rec explore state =
    let key = Sem.key_of_state state in
    match Memo.find_opt memo key with
    | Some res -> res
    | None ->
        let res =
          if Sem.all_done prog state then terminal
          else
            match solo info state with
            | Some p -> (
                (* A data access or fence: it cannot block, and it records
                   nothing. *)
                match Sem.step prog state p with
                | Some state' -> explore state'
                | None -> assert false)
            | None ->
                let acc = ref Tuple_set.empty in
                for p = 0 to Prog.num_threads prog - 1 do
                  match Sem.step prog state p with
                  | None -> ()
                  | Some state' ->
                      let eid = ids.(p).(state.Sem.threads.(p).Sem.next) in
                      let e = Evts.event evts eid in
                      let futures = explore state' in
                      let futures =
                        match (Event.is_sync e, e.Event.loc) with
                        | true, Some loc ->
                            Tuple_set.map (prepend loc eid) futures
                        | _, _ -> futures
                      in
                      acc := Tuple_set.union futures !acc
                done;
                !acc
        in
        Memo.add memo key res;
        res
  in
  Tuple_set.elements (explore (Sem.initial prog))

let to_so evts tuple =
  let n = Evts.size evts in
  let pairs = ref [] in
  List.iter
    (fun (_, es) ->
      let rec walk = function
        | [] -> ()
        | a :: rest ->
            List.iter (fun b -> pairs := (a, b) :: !pairs) rest;
            walk rest
      in
      walk es)
    tuple;
  Rel.of_list n !pairs

let count prog = List.length (feasible prog)

let pp ppf tuple =
  let pp_loc ppf (l, es) =
    Fmt.pf ppf "%s:[%a]" l Fmt.(list ~sep:(any ",") int) es
  in
  Fmt.pf ppf "@[<h>%a@]" Fmt.(list ~sep:(any "; ") pp_loc) tuple
