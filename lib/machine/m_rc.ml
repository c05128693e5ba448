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

include Step.In_order (struct
  let name = "rc"

  (* Releases (sync writes; RMWs and locks always) drain first.  Acquires
     commit at once without draining the processor's own pending writes,
     still forwarding from them (intra-processor dependencies are
     preserved). *)
  let waits = function
    | Instr.Store { kind = Instr.Sync; _ } -> true
    | _ -> false

  let fifo = false
end)

(* No reduction oracle: explored in full — always sound. *)
let por _ = None
