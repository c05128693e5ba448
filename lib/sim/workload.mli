(** Timing workloads for the simulator, with generators for the paper's
    scenarios. *)

type 'loc op_on =
  | Read of { loc : 'loc; tag : string option }
      (** blocking data read; [tag] records the observed value *)
  | Write of { loc : 'loc; value : int }  (** non-blocking data write *)
  | Sync_read of { loc : 'loc; tag : string option }
  | Sync_write of { loc : 'loc; value : int }
  | Tas of { loc : 'loc; tag : string option }
      (** one TestAndSet attempt (no retry) *)
  | Fadd of { loc : 'loc; n : int }
  | Spin_until of { loc : 'loc; expect : int; sync : bool }
  | Lock of { loc : 'loc }  (** TestAndSet loop until acquired *)
  | Unlock of { loc : 'loc }
  | Work of int  (** local computation, in cycles *)
(** One operation, over locations of type ['loc]: names in a workload,
    dense line ids once a run has interned them. *)

type op = string op_on
(** An operation on a named location. *)

val location : 'loc op_on -> 'loc option
(** The location an operation touches ([None] for [Work]). *)

val map_loc : ('a -> 'b) -> 'a op_on -> 'b op_on
(** The same operation with its location mapped. *)

type t = {
  name : string;
  init : (string * int) list;  (** initial memory image *)
  threads : op list list;  (** one operation list per processor *)
}
(** A timing workload: straight-line per-processor operation streams (no
    registers or control flow — contrast with litmus {!Prog.t}). *)

(** {2 Constructors} — one smart constructor per {!op} case. *)

val read : ?tag:string -> string -> op
val write : string -> int -> op
val sync_read : ?tag:string -> string -> op
val sync_write : string -> int -> op
val tas : ?tag:string -> string -> op
val fadd : string -> int -> op
val spin : ?sync:bool -> string -> int -> op
val lock : string -> op
val unlock : string -> op
val work : int -> op

(** {2 The paper's scenarios}

    Every generator validates its arguments: [nprocs] must lie in
    [\[1, max_procs\]], round/batch counts must be positive, and work/delay
    cycle counts non-negative.  Violations raise [Invalid_argument] with a
    message naming the generator, the argument, the accepted range, and the
    offending value. *)

val max_procs : int
(** Upper bound on [?nprocs] accepted by the generators (1024). *)

val fig3_handoff :
  ?work_before:int -> ?work_after:int -> ?consumer_delay:int -> unit -> t
(** Figure 3: [W(x) ... Unset(s)] producing for [TestAndSet(s) ... R(x)]. *)

val spin_barrier : ?nprocs:int -> ?stagger:int -> ?sync_spin:bool -> unit -> t
(** Section 6: central counter barrier; [sync_spin] chooses sync-read
    spinning (serialized by base def2) vs data-read spinning. *)

val critical_sections :
  ?nprocs:int -> ?rounds:int -> ?work_in:int -> ?work_out:int -> unit -> t
(** Lock-protected counter increments: [rounds] acquisitions per
    processor, [work_in]/[work_out] cycles of local work inside/outside
    the critical section. *)

val pipeline : ?nprocs:int -> ?batch:int -> ?work_cycles:int -> unit -> t
(** Producer-consumer chain: each stage writes a batch and signals the
    next with an Unset/TestAndSet handoff (Figure 3 repeated in series). *)

val ticket_lock : ?nprocs:int -> ?work_in:int -> ?work_out:int -> unit -> t
(** FADD-based ticket lock: explicit FIFO, no TestAndSet ping-pong. *)

val sense_barrier : ?nprocs:int -> ?rounds:int -> ?sync_spin:bool -> unit -> t
(** Centralized sense-reversing barrier with a static coordinator. *)

val num_threads : t -> int
(** Number of processors the workload occupies. *)
