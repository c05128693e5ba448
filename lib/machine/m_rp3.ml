(* An RP3-style fence machine (paper, Section 2.1): the IBM RP3's option in
   which a processor waits for the acknowledgements of its outstanding
   requests only at an explicit fence instruction.

   The hardware knows nothing about synchronization operations — sync
   accesses travel like data — so ordering is entirely the software's
   responsibility, through fences.  "As will be apparent later, this option
   functions as a weakly ordered system": it is weakly ordered with respect
   to the fenced-delays synchronization model (every Shasha–Snir delay pair
   separated by a fence), not with respect to DRF0.

   Model: in-order issue, blocking reads with forwarding from the
   processor's own pending writes, pending writes that reach memory in any
   order (same-location writes in issue order), and a fence that stalls
   until the pending set drains.  RMWs are atomic at memory and drain the
   pending set first (RP3's fetch-and-ops serialized at the memory
   modules). *)

include Step.In_order (struct
  let name = "rp3"

  (* Any kind: the hardware sees no difference. *)
  let waits _ = false
  let fifo = false
end)

(* No reduction oracle: explored in full — always sound. *)
let por _ = None
