(* The sequential (atomic, in-program-order) small-step semantics of litmus
   programs.  This is the semantics of the paper's "idealized architecture":
   all memory accesses execute atomically and in program order.  Both the SC
   enumerator and several abstract machines reuse these steps. *)

module Smap = Exp.Smap

type thread_state = { next : int; regs : int Smap.t }

type state = { memory : int Smap.t; threads : thread_state array }

let initial prog =
  {
    memory = Prog.initial_memory prog;
    threads =
      Array.init (Prog.num_threads prog) (fun _ ->
          { next = 0; regs = Smap.empty });
  }

let read_mem memory loc =
  match Smap.find_opt loc memory with Some v -> v | None -> 0

let thread_done prog state p =
  state.threads.(p).next >= List.length (Prog.thread prog p)

let all_done prog state =
  let n = Prog.num_threads prog in
  let rec loop p = p >= n || (thread_done prog state p && loop (p + 1)) in
  loop 0

let next_instr prog state p =
  let ts = state.threads.(p) in
  List.nth_opt (Prog.thread prog p) ts.next

(* Execute the next instruction of thread [p] atomically.  Returns [None] if
   the thread has finished or its next instruction is a blocked [Await] or
   [Lock] (spin-reads that cannot currently succeed). *)
let step prog state p =
  match next_instr prog state p with
  | None -> None
  | Some instr -> (
      let ts = state.threads.(p) in
      let effect =
        match instr with
        | Instr.Load { loc; reg; _ } ->
            Some (state.memory, Smap.add reg (read_mem state.memory loc) ts.regs)
        | Instr.Store { loc; value; _ } ->
            Some (Smap.add loc (Exp.eval ts.regs value) state.memory, ts.regs)
        | Instr.Rmw { loc; reg; value; _ } ->
            let old = read_mem state.memory loc in
            let regs = Smap.add reg old ts.regs in
            Some (Smap.add loc (Exp.eval regs value) state.memory, regs)
        | Instr.Await { loc; expect; reg; _ } ->
            if read_mem state.memory loc = expect then
              let regs =
                match reg with
                | Some r -> Smap.add r expect ts.regs
                | None -> ts.regs
              in
              Some (state.memory, regs)
            else None
        | Instr.Lock { loc } ->
            if read_mem state.memory loc = 0 then
              Some (Smap.add loc 1 state.memory, ts.regs)
            else None
        | Instr.Fence -> Some (state.memory, ts.regs)
      in
      match effect with
      | None -> None
      | Some (memory, regs) ->
          let threads = Array.copy state.threads in
          threads.(p) <- { next = ts.next + 1; regs };
          Some { memory; threads })

let final_of_state state =
  Final.make ~memory:state.memory
    ~regs:(Array.map (fun ts -> ts.regs) state.threads)

(* Packed keys for memoization: memory, then each thread's program counter
   and registers (see {!Layout}). *)
let shape =
  { Layout.counters = 1; mask = false; buffer = None; reservations = false }

let layout prog = Layout.cached prog shape

let key l state =
  let b = Layout.create l in
  Layout.set_memory l b state.memory;
  Array.iteri
    (fun p ts ->
      Layout.set_counter l b p 0 ts.next;
      Layout.set_regs l b p ts.regs)
    state.threads;
  Layout.key b
