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

include Step.In_order (struct
  let name = "wbuf"

  (* Sync loads and stores go through the buffer like data. *)
  let waits _ = false
  let fifo = true
end)

(* --- partial-order reduction oracle -------------------------------------

   Transition labels ([Step.In_order]).  A store *issue* only appends to
   the issuer's own buffer — no other processor can observe it — so it is
   labeled local ([a_loc = ""]), like a fence; the write becomes visible
   at the *drain*, which carries the location.  Loads and awaits read
   their location (possibly forwarded, but forwarding only consults the
   issuer's own buffer).  RMW and lock are reads-and-writes of their
   location.

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

let por l =
  let code = Layout.code l in
  let ample k succs =
    let s = Bytes.unsafe_of_string k and rem = Step.remaining l in
    List.find_opt
      (fun ((a : Machine_sig.action), _) ->
        let p = a.a_proc in
        if a.a_loc = "" then true
        else if a.a_id < 0 then
          Step.foreign_clear l rem s ~bit:1 p (Layout.entry_lid l s p 0) 0
        else
          match code.(p).(a.a_id) with
          | { Layout.instr = Instr.Load _; lid; _ } ->
              Step.foreign_clear l rem s ~bit:2 p lid 0
          | _ -> false)
      succs
  in
  Some { Machine_sig.ample }
