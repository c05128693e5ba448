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

val set_entry : t -> Bytes.t -> int -> int -> string -> int -> unit
(** [set_entry l b p slot loc v]: buffer entry [slot] of processor [p]. *)

val set_entry_counter : t -> Bytes.t -> int -> int -> int -> int -> unit
(** [set_entry_counter l b p slot j v]: counter [j] of that entry. *)

val set_reservation : t -> Bytes.t -> loc:string -> proc:int -> int -> unit
(** Processor [proc]'s reservation on [loc], with its counter. *)

val key : Bytes.t -> string
(** Seal the buffer as the key; the buffer must not be written again. *)

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
