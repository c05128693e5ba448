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

include Step.In_order (struct
  let name = "def1"

  (* Conditions 2 and 3: a synchronization access waits for the
     processor's pending writes, then acts on memory atomically. *)
  let waits = Instr.is_sync
  let fifo = false
end)

(* No reduction oracle: explored in full — always sound. *)
let por _ = None
