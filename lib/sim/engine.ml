(* A discrete-event simulation engine: a time-ordered queue of thunks.
   Ties are broken by insertion order, so runs are fully deterministic.

   The queue is a mutable array-based binary min-heap of *cells* ordered
   by (time, seq) — O(log n) with no allocation per op beyond the cell,
   versus the persistent-map reference implementation (Engine_ref) that
   allocates a rebalanced spine on every add and remove.

   Batching: consecutive schedules for the same cycle merge into the most
   recently created cell, so e.g. an invalidation fan-out that lands N
   messages on one cycle costs one heap pop, not N.  This is
   order-preserving: the merge target is always the cell with the
   globally maximal seq, so every other same-cycle cell pops before it,
   and within a cell thunks run in append order — together exactly the
   (time, insertion-order) sequence the reference engine executes.  The
   merge target is cleared when it is popped, so a thunk that schedules
   more same-cycle work from inside the running cell gets a fresh cell
   with a fresh seq, again matching the reference order. *)

type cell = {
  time : int;
  seq : int;  (* creation order; unique — the tie-break *)
  created : int;  (* engine clock when the cell was created *)
  mutable thunks : (unit -> unit) list;  (* newest first; reversed to run *)
  mutable cancelled : bool;
      (* a cancelled cell is dropped on pop without running, counting, or
         advancing the clock — as if it was never scheduled *)
}

type handle = cell

type t = {
  mutable now : int;
  mutable seq : int;
  mutable heap : cell array;  (* heap.(0 .. size-1), min at 0 *)
  mutable size : int;
  mutable executed : int;  (* cells executed *)
  mutable merged : int;  (* thunks batched into an existing cell *)
  mutable last : cell option;  (* most recently created, not yet popped *)
  mutable running_since : int;  (* [created] of the cell being executed *)
  batch : bool;
}

let dummy = { time = 0; seq = 0; created = 0; thunks = []; cancelled = false }

let create ?(batch = true) () =
  {
    now = 0;
    seq = 0;
    heap = Array.make 256 dummy;
    size = 0;
    executed = 0;
    merged = 0;
    last = None;
    running_since = 0;
    batch;
  }

let now t = t.now
let executed t = t.executed
let merged t = t.merged
let running_since t = t.running_since

(* --- heap primitives ------------------------------------------------------- *)

let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let sift_up h i c =
  let i = ref i in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    less c h.(p)
  do
    let p = (!i - 1) / 2 in
    h.(!i) <- h.(p);
    i := p
  done;
  h.(!i) <- c

let sift_down h size c =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= size then continue := false
    else begin
      let m = if l + 1 < size && less h.(l + 1) h.(l) then l + 1 else l in
      if less h.(m) c then begin
        h.(!i) <- h.(m);
        i := m
      end
      else continue := false
    end
  done;
  h.(!i) <- c

let push t c =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) dummy in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.size <- t.size + 1;
  sift_up t.heap (t.size - 1) c

let pop t =
  let c = t.heap.(0) in
  t.size <- t.size - 1;
  let moved = t.heap.(t.size) in
  t.heap.(t.size) <- dummy (* drop the reference: thunks capture closures *);
  if t.size > 0 then sift_down t.heap t.size moved;
  c

(* --- scheduling ------------------------------------------------------------ *)

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  let time = t.now + delay in
  match t.last with
  | Some l when t.batch && l.time = time ->
      l.thunks <- f :: l.thunks;
      t.merged <- t.merged + 1
  | _ ->
      let c =
        { time; seq = t.seq; created = t.now; thunks = [ f ]; cancelled = false }
      in
      t.seq <- t.seq + 1;
      push t c;
      t.last <- Some c

(* A cancellable event never becomes a merge target (and never merges into
   one): cancellation must affect exactly the one thunk it was issued for,
   and a cancelled cell must not swallow later same-cycle schedules.  It
   also clears the merge target: the older [last] cell now has a smaller
   seq than this one, so a later same-cycle schedule merged into it would
   run before this thunk instead of after it. *)
let schedule_cancellable t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  let c =
    {
      time = t.now + delay;
      seq = t.seq;
      created = t.now;
      thunks = [ f ];
      cancelled = false;
    }
  in
  t.seq <- t.seq + 1;
  push t c;
  t.last <- None;
  c

let cancel c = c.cancelled <- true

exception Out_of_time

(* Run until the queue drains.  [limit] bounds simulated time as a safety
   net against livelock bugs (spinning processors reschedule themselves
   forever if the value they wait for never arrives). *)
let run ?(limit = 10_000_000) t =
  while t.size > 0 do
    if t.heap.(0).cancelled then ignore (pop t)
    else begin
      if t.heap.(0).time > limit then raise Out_of_time;
      let c = pop t in
      (match t.last with Some l when l == c -> t.last <- None | _ -> ());
      t.now <- max t.now c.time;
      t.running_since <- c.created;
      t.executed <- t.executed + 1;
      List.iter (fun f -> f ()) (List.rev c.thunks)
    end
  done
