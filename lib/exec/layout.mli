(** Packed state keys: the per-program layout of one flat, byte-comparable
    string per machine state.

    A key is [memory | segment of P0 | ... | segment of Pn-1 |
    reservations], every part at a fixed offset, so all keys of one
    layout have the same length and compare with [String.compare]:

    - memory: one value slot per location, in {!Prog.locations} order;
    - a processor segment: the machine's counters, an optional
      executed-instruction bitmask, one value slot per register the
      thread writes (sorted by name), and an optional fixed-capacity write
      buffer (one entry per store instruction: a location byte, a value
      slot and the machine's per-entry counters, oldest first, unused
      entries zero);
    - reservations: one counter cell per (reservation location,
      processor), present only when the shape asks for it.

    An unwritten location or register is all zero bytes, distinct from a
    written 0, so a state's outcome is a function of its key.  Widths come
    from static bounds on the program; a value or counter that does not
    fit raises [Failure] rather than being truncated. *)

type shape = {
  counters : int;  (** per-processor counters (pc, write sequence) *)
  mask : bool;  (** a per-processor executed-instruction bitmask *)
  buffer : int option;
      (** a per-processor write buffer whose entries carry a location, a
          value and this many counters *)
  reservations : bool;
      (** a (location, processor) reservation matrix, over the locations
          of sync-class accesses, RMWs and locks *)
}
(** What a machine's state holds beyond memory and registers. *)

type t
(** A layout: offsets and widths for one (program, shape). *)

val cached : Prog.t -> shape -> t
(** The program's layout for the shape, memoized on physical program
    identity (a few entries, process-wide, safe to race on from several
    domains).
    @raise Invalid_argument on a program with more than 255 locations. *)

(** {2 Writing a key}

    Start from {!create} (all zero: nothing written, buffers empty, no
    reservations), fill in the state's parts, and seal with {!key}.
    Every writer raises [Failure] on a name outside the layout or a
    number outside its encoding. *)

val create : t -> Bytes.t
val set_memory : t -> Bytes.t -> int Exp.Smap.t -> unit
val set_regs : t -> Bytes.t -> int -> int Exp.Smap.t -> unit

val set_counter : t -> Bytes.t -> int -> int -> int -> unit
(** [set_counter l b p i v]: counter [i] of processor [p]. *)

val set_mask : t -> Bytes.t -> int -> int -> unit
(** [set_mask l b p m]: processor [p]'s executed-instruction bitmask. *)

val key : Bytes.t -> string
(** Seal the buffer as the key; the buffer must not be written again. *)

(** {2 Compiled programs} *)

type vexp =
  | Const of int
  | Reg of int * string
  | Add of vexp * vexp
  | Sub of vexp * vexp
(** A value expression with each register resolved to its slot offset
    ([-1] for a register the thread never writes). *)

type op = {
  instr : Instr.t;
  mem : int;  (** offset of its location's memory slot *)
  lid : int;  (** its location's buffer byte (index + 1); 0 for a fence *)
  row : int;  (** its location's reservation row, or [-1] *)
  dst : int;  (** offset of its target register's slot, or [-1] *)
  value : vexp;  (** the store or RMW value *)
}
(** One instruction compiled to the key offsets it touches. *)

val prog : t -> Prog.t
val nprocs : t -> int

val code : t -> op array array
(** [code l].(p).(j): instruction [j] of thread [p]. *)

val initial : t -> string
(** The key holding the program's initial memory and nothing else: every
    machine's initial state. *)

val loc_name : t -> int -> string
(** The location a buffer byte names. *)

val memo : (t -> 'a) -> t -> 'a
(** [memo f] caches [f]'s result for the last layout it was applied to
    (physical identity; safe to race on from several domains). *)

(** {2 Stepping on a key}

    A machine reads its parent key through [Bytes.unsafe_of_string] and
    writes each successor into a copy.  Readers do no bounds checks;
    writers raise [Failure] on a number outside its encoding or a full
    buffer. *)

val get : t -> Bytes.t -> int -> int
(** The value slot at an offset; an unwritten slot reads 0. *)

val put : t -> Bytes.t -> int -> int -> unit

val eval : t -> Bytes.t -> vexp -> int
(** @raise Exp.Unbound_register on a register whose slot is unwritten. *)

val counter : t -> Bytes.t -> int -> int -> int
(** [counter l b p i]: counter [i] of processor [p]. *)

val mask : t -> Bytes.t -> int -> int

val buffered : t -> Bytes.t -> int -> int
(** The number of entries in processor [p]'s buffer. *)

val entry_lid : t -> Bytes.t -> int -> int -> int
(** [entry_lid l b p slot]: the location byte of that entry. *)

val entry_counter : t -> Bytes.t -> int -> int -> int -> int

val set_entry_counter : t -> Bytes.t -> int -> int -> int -> int -> unit
(** [set_entry_counter l b p slot j v]: counter [j] of that entry. *)

val forward : t -> Bytes.t -> int -> int -> int
(** [forward l b p lid]: the offset of the value slot of [p]'s newest
    buffered write to [lid], or [-1]. *)

val push : t -> Bytes.t -> int -> int -> int -> int
(** [push l b p lid v] appends the entry [(lid, v)] to [p]'s buffer and
    returns its slot. *)

val drain : t -> Bytes.t -> int -> int -> unit
(** [drain l b p slot] performs that entry: its value goes to memory and
    the younger entries move down one slot. *)

val reservation_rows : t -> int

val reservation : t -> Bytes.t -> row:int -> proc:int -> int
(** The counter of [proc]'s reservation in that row, or [-1] for none. *)

val set_reservation : t -> Bytes.t -> row:int -> proc:int -> int -> unit
val clear_reservation : t -> Bytes.t -> row:int -> proc:int -> unit

val reserved : t -> Bytes.t -> bool
(** Whether any reservation stands. *)

val final : t -> Bytes.t -> Final.t
(** The outcome the key records: its written memory and register slots. *)

(** {2 Automorphisms as index maps} *)

type map = {
  src : int array;  (** byte [i] of the image comes from byte [src.(i)] *)
  tables : string array;
      (** ... passed through the 256-byte table [tables.(i)]: the identity,
          or the location relabeling at buffer location bytes *)
}

val index_map :
  t ->
  proc:(int -> int) ->
  loc:(string -> string) ->
  reg:(int -> string -> string) ->
  map
(** The byte map of the state bijection that moves processor [p]'s
    segment to [proc p] (registers renamed by [reg p]), memory slot [l]
    to [loc l], and reservation cell [(l, p)] to [(loc l, proc p)].
    @raise Invalid_argument if two exchanged segments differ in shape. *)
