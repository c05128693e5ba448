(* Timing workloads: per-processor operation lists with local work and
   spinning, plus generators for the paper's scenarios.  Unlike litmus
   programs, these are about cycles, not outcome sets: loops are expressed
   by generating unrolled operation lists or by the [Spin_until]/[Lock]
   primitives, which iterate at run time. *)

type 'loc op_on =
  | Read of { loc : 'loc; tag : string option }
  | Write of { loc : 'loc; value : int }
  | Sync_read of { loc : 'loc; tag : string option }
  | Sync_write of { loc : 'loc; value : int }
  | Tas of { loc : 'loc; tag : string option }
  | Fadd of { loc : 'loc; n : int }
  | Spin_until of { loc : 'loc; expect : int; sync : bool }
  | Lock of { loc : 'loc }
  | Unlock of { loc : 'loc }
  | Work of int

type op = string op_on

let location = function
  | Read { loc; _ }
  | Write { loc; _ }
  | Sync_read { loc; _ }
  | Sync_write { loc; _ }
  | Tas { loc; _ }
  | Fadd { loc; _ }
  | Spin_until { loc; _ }
  | Lock { loc }
  | Unlock { loc } ->
      Some loc
  | Work _ -> None

let map_loc f = function
  | Read { loc; tag } -> Read { loc = f loc; tag }
  | Write { loc; value } -> Write { loc = f loc; value }
  | Sync_read { loc; tag } -> Sync_read { loc = f loc; tag }
  | Sync_write { loc; value } -> Sync_write { loc = f loc; value }
  | Tas { loc; tag } -> Tas { loc = f loc; tag }
  | Fadd { loc; n } -> Fadd { loc = f loc; n }
  | Spin_until { loc; expect; sync } -> Spin_until { loc = f loc; expect; sync }
  | Lock { loc } -> Lock { loc = f loc }
  | Unlock { loc } -> Unlock { loc = f loc }
  | Work n -> Work n

type t = {
  name : string;
  init : (string * int) list;
  threads : op list list;
}

(* --- generator argument validation ----------------------------------------

   A zero or negative width/round count, or a width past the simulator's
   processor limit, used to build a nonsense workload silently (an empty
   thread list still "runs" and reports zero cycles).  Every generator now
   validates its arguments up front and raises a located, actionable
   [Invalid_argument] instead. *)

let max_procs = 1024

let check_arg ~gen name ~lo ~hi v =
  if v < lo || v > hi then
    invalid_arg
      (Printf.sprintf "Workload.%s: %s must be in [%d, %d] (got %d)" gen name
         lo hi v)

let check_nprocs ~gen v = check_arg ~gen "nprocs" ~lo:1 ~hi:max_procs v
let check_pos ~gen name v = check_arg ~gen name ~lo:1 ~hi:max_int v
let check_nonneg ~gen name v = check_arg ~gen name ~lo:0 ~hi:max_int v

let read ?tag loc = Read { loc; tag }
let write loc value = Write { loc; value }
let sync_read ?tag loc = Sync_read { loc; tag }
let sync_write loc value = Sync_write { loc; value }
let tas ?tag loc = Tas { loc; tag }
let fadd loc n = Fadd { loc; n }
let spin ?(sync = true) loc expect = Spin_until { loc; expect; sync }
let lock loc = Lock { loc }
let unlock loc = Unlock { loc }
let work n = Work n

(* --- Figure 3: producer/consumer handoff --------------------------------- *)

(* P0 holds the lock (it TestAndSets s first, so the line sits exclusive in
   its cache and the Unset is a cache hit that commits immediately), writes
   the datum, does unrelated work, Unsets s, and continues working; P1
   acquires s (TestAndSet loop) and reads the datum.  The warm-up reads put
   x in both caches, so the producer's write needs an invalidation and is
   slow to perform globally — exactly the figure's "write of x takes a long
   time": the Unset commits while the write is pending, the line is
   reserved, and P1's TestAndSet is deferred until the write performs. *)
let fig3_handoff ?(work_before = 10) ?(work_after = 200) ?(consumer_delay = 60)
    () =
  let gen = "fig3_handoff" in
  check_nonneg ~gen "work_before" work_before;
  check_nonneg ~gen "work_after" work_after;
  check_nonneg ~gen "consumer_delay" consumer_delay;
  {
    name = "fig3_handoff";
    init = [];
    threads =
      [
        [
          lock "s" (* P0 starts as the lock holder: line M in its cache *);
          read "x" (* warm-up: cache x shared *);
          work work_before;
          write "x" 1;
          unlock "s" (* Unset: a cache hit; commits at once *);
          work work_after (* other work P0 can overlap *);
        ];
        [
          read "x" (* warm-up, so the write above needs an invalidation *);
          work consumer_delay (* P1 synchronizes after the Unset commits *);
          lock "s" (* TestAndSet loop *);
          read ~tag:"x" "x";
        ];
      ];
  }

(* --- Section 6: spinning on a barrier ------------------------------------ *)

(* A central counter barrier: every processor increments the count with a
   sync fetch-and-add and then spins until it reaches [nprocs].  [sync_spin]
   selects sync-read spinning (serialized by the base def2 implementation)
   versus data-read spinning. *)
let spin_barrier ?(nprocs = 4) ?(stagger = 25) ?(sync_spin = true) () =
  let gen = "spin_barrier" in
  check_nprocs ~gen nprocs;
  check_nonneg ~gen "stagger" stagger;
  {
    name = "spin_barrier";
    init = [];
    threads =
      List.init nprocs (fun p ->
          [
            work (p * stagger);
            fadd "count" 1;
            Spin_until { loc = "count"; expect = nprocs; sync = sync_spin };
            Write { loc = Printf.sprintf "done%d" p; value = 1 };
          ]);
  }

(* --- Lock-based critical sections ----------------------------------------- *)

(* Every processor repeatedly takes a lock, updates shared data inside the
   critical section, and does private work outside: the general workload
   for comparing the policies' sync costs. *)
let critical_sections ?(nprocs = 4) ?(rounds = 4) ?(work_in = 10)
    ?(work_out = 50) () =
  let gen = "critical_sections" in
  check_nprocs ~gen nprocs;
  check_pos ~gen "rounds" rounds;
  check_nonneg ~gen "work_in" work_in;
  check_nonneg ~gen "work_out" work_out;
  let round p =
    [
      lock "l";
      read "shared";
      write "shared" (p + 1);
      work work_in;
      write "shared2" p;
      unlock "l";
      work work_out;
      write (Printf.sprintf "private%d" p) 1;
    ]
  in
  {
    name = "critical_sections";
    init = [];
    threads = List.init nprocs (fun p -> List.concat (List.init rounds (fun _ -> round p)));
  }

(* --- Producer/consumer pipeline ------------------------------------------- *)

(* A chain: processor i produces a batch of data and releases flag i; the
   next processor awaits the flag, consumes, produces its own, and so on.
   Exercises the transitive-handoff pattern (Section 4's hb chain) at
   timing level. *)
let pipeline ?(nprocs = 4) ?(batch = 4) ?(work_cycles = 20) () =
  let gen = "pipeline" in
  check_nprocs ~gen nprocs;
  check_pos ~gen "batch" batch;
  check_nonneg ~gen "work_cycles" work_cycles;
  let produce p =
    List.init batch (fun j -> write (Printf.sprintf "d%d_%d" p j) (j + 1))
  in
  let consume p =
    List.init batch (fun j ->
        read ~tag:(Printf.sprintf "d%d_%d" p j) (Printf.sprintf "d%d_%d" p j))
  in
  {
    name = "pipeline";
    init = [];
    threads =
      List.init nprocs (fun p ->
          (if p = 0 then []
           else [ spin (Printf.sprintf "f%d" (p - 1)) 1 ] @ consume (p - 1))
          @ produce p
          @ [ work work_cycles ]
          @ [ sync_write (Printf.sprintf "f%d" p) 1 ]);
  }

(* --- Ticket lock ------------------------------------------------------------ *)

(* Each processor takes a ticket with a sync fetch-and-add and spins until
   [serving] reaches its ticket, then executes the critical section and
   increments [serving].  Tickets remove the TestAndSet ping-pong: the
   queue is explicit.  Because tickets are assigned dynamically, the
   critical sections use a per-round location rather than per-owner data. *)
let ticket_lock ?(nprocs = 4) ?(work_in = 10) ?(work_out = 40) () =
  let gen = "ticket_lock" in
  check_nprocs ~gen nprocs;
  check_nonneg ~gen "work_in" work_in;
  check_nonneg ~gen "work_out" work_out;
  {
    name = "ticket_lock";
    init = [];
    threads =
      List.init nprocs (fun p ->
          [
            work (p * 3);
            fadd "next_ticket" 1 (* my ticket is the old value *);
            (* Spin until serving = my ticket.  The workload language has no
               registers, so each processor's expected ticket is its arrival
               order under the deterministic schedule; we spin on our
               processor id, which matches arrival order here. *)
            Spin_until { loc = "serving"; expect = p; sync = true };
            read "shared";
            write "shared" (p + 1);
            work work_in;
            fadd "serving" 1;
            work work_out;
          ]);
  }

(* --- Sense-reversing barrier ------------------------------------------------- *)

(* The classic centralized barrier: processors FADD the count; the last one
   resets the count and flips the sense flag; the others spin on the sense
   flag.  [sync_spin] selects the spin flavour, as in [spin_barrier]. *)
let sense_barrier ?(nprocs = 4) ?(rounds = 2) ?(sync_spin = true) () =
  let gen = "sense_barrier" in
  check_nprocs ~gen nprocs;
  check_pos ~gen "rounds" rounds;
  let round r =
    let sense = Printf.sprintf "sense%d" r in
    [
      fadd "count" 1;
      (* Every processor spins until the sense flips; the "last arrival
         flips it" logic needs a conditional, which the op language lacks,
         so a designated coordinator (processor 0) awaits full count and
         flips.  The barrier semantics are identical; only the flipper is
         static. *)
    ]
    @ [ Spin_until { loc = sense; expect = 1; sync = sync_spin } ]
  in
  let coordinator_round r =
    let sense = Printf.sprintf "sense%d" r in
    [
      fadd "count" 1;
      Spin_until { loc = "count"; expect = nprocs * (r + 1); sync = sync_spin };
      sync_write sense 1;
    ]
  in
  {
    name = "sense_barrier";
    init = [];
    threads =
      List.init nprocs (fun p ->
          List.concat
            (List.init rounds (fun r ->
                 (if p = 0 then coordinator_round r else round r)
                 @ [ work 15 ])));
  }

let num_threads w = List.length w.threads
