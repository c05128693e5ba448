(* Packed state keys: one flat, byte-comparable string per machine state.

   A layout fixes, once per (program, machine shape), where every varying
   part of a state lives in the key:

     [memory][segment of P0]...[segment of Pn-1][reservations]

   - memory: one value slot per location, in [Prog.locations] order;
   - a processor segment: the machine's counters (program counter, write
     sequence counter), an executed-instruction bitmask, one value slot per
     register the thread can write (sorted by name), and a fixed-capacity
     write buffer (one entry per store instruction of the thread: a
     location byte, a value slot and the machine's per-entry counters,
     oldest first, unused entries zero);
   - reservations: one counter cell per (reservation location, processor).

   Value slots hold [zigzag v + 1] big-endian, so the all-zero slot means
   "never written" and a written 0 stays distinct from it — a state's
   outcome is a function of its key.  Location bytes hold [id + 1] for the
   same reason.  Widths come from static bounds on the program (see
   [value_bound]); a value that does not fit raises instead of being
   truncated.

   Every key of one layout has the same length, and corresponding threads
   of an automorphism have identical segment shapes, so a program
   automorphism acts on keys as a fixed gather of bytes plus a relabeling
   of the location bytes — see [index_map] and [Sym.compile]. *)

module Smap = Exp.Smap

type shape = {
  counters : int;
  mask : bool;
  buffer : int option;
  reservations : bool;
}

type t = {
  nprocs : int;
  vw : int;
  cw : int;
  locs : string array;
  loc_id : int Smap.t;
  regs : string array array;
  reg_id : int Smap.t array;
  proc_off : int array;
  mask_off : int array;
  reg_off : int array;
  buf_off : int array;
  buf_cap : int array;
  entry : int;
  seg_size : int array;
  resv_locs : string array;
  resv_row : int Smap.t;
  resv_off : int;
  size : int;
}

(* The smallest byte width [w >= 1] whose unsigned range holds [n]. *)
let bytes_for n =
  let rec go w = if w >= 8 || n lsr (8 * w) = 0 then w else go (w + 1) in
  go 1

let index_of names =
  snd
    (Array.fold_left
       (fun (i, m) n -> (i + 1, Smap.add n i m))
       (0, Smap.empty) names)

(* A sound bound on every value a run can produce.  Straight-line threads
   evaluate each store/RMW expression at most once; an expression with at
   most [leaves] leaves over values bounded by [b] yields at most
   [leaves * b]; every other value is an initial value, a constant, an
   await's expected value or a lock's 1.  Saturates far below [max_int]. *)
let value_bound prog =
  let cap = max_int / 4 in
  let consts = ref 1 and leaves = ref 1 and writes = ref 0 in
  let rec exp = function
    | Exp.Const c ->
        consts := max !consts (abs c);
        1
    | Exp.Reg _ -> 1
    | Exp.Add (a, b) | Exp.Sub (a, b) -> exp a + exp b
  in
  List.iter (fun (_, v) -> consts := max !consts (abs v)) (Prog.init prog);
  List.iter
    (List.iter (function
      | Instr.Store { value; _ } | Instr.Rmw { value; _ } ->
          leaves := max !leaves (exp value);
          incr writes
      | Instr.Await { expect; _ } -> consts := max !consts (abs expect)
      | Instr.Load _ | Instr.Lock _ | Instr.Fence -> ()))
    (Prog.threads prog);
  let b = ref (min !consts cap) in
  for _ = 1 to !writes do
    if !leaves > 1 then b := if !b > cap / !leaves then cap else !b * !leaves
  done;
  !b

(* Locations a machine may reserve: those of the instructions that commit
   as synchronization (sync-class accesses, every RMW, locks). *)
let reservation_locations prog =
  List.concat_map
    (List.filter_map (fun i ->
         match i with
         | Instr.Rmw { loc; _ } | Instr.Lock { loc } -> Some loc
         | _ when Instr.is_sync i -> Instr.location i
         | _ -> None))
    (Prog.threads prog)
  |> List.sort_uniq String.compare

let make prog shape =
  let nprocs = Prog.num_threads prog in
  let threads = Array.of_list (Prog.threads prog) in
  let locs = Array.of_list (Prog.locations prog) in
  if Array.length locs > 255 then
    invalid_arg "Layout: more than 255 locations";
  let max_len = Array.fold_left (fun m t -> max m (List.length t)) 0 threads in
  let cw = bytes_for (max_len + 1) in
  let vw = bytes_for ((2 * value_bound prog) + 1) in
  let regs =
    Array.map
      (fun t ->
        Array.of_list
          (List.sort_uniq String.compare
             (List.filter_map Instr.target_register t)))
      threads
  in
  let entry =
    match shape.buffer with Some c -> 1 + vw + (c * cw) | None -> 0
  in
  let buf_cap =
    Array.map
      (fun t ->
        if shape.buffer = None then 0
        else
          List.length
            (List.filter (function Instr.Store _ -> true | _ -> false) t))
      threads
  in
  let head p =
    (shape.counters * cw)
    + if shape.mask then (List.length threads.(p) + 7) / 8 else 0
  in
  let seg_size =
    Array.init nprocs (fun p ->
        head p + (Array.length regs.(p) * vw) + (buf_cap.(p) * entry))
  in
  let proc_off = Array.make nprocs 0 in
  let off = ref (Array.length locs * vw) in
  for p = 0 to nprocs - 1 do
    proc_off.(p) <- !off;
    off := !off + seg_size.(p)
  done;
  let resv_locs =
    if shape.reservations then Array.of_list (reservation_locations prog)
    else [||]
  in
  {
    nprocs;
    vw;
    cw;
    locs;
    loc_id = index_of locs;
    regs;
    reg_id = Array.map index_of regs;
    proc_off;
    mask_off = Array.map (fun o -> o + (shape.counters * cw)) proc_off;
    reg_off = Array.init nprocs (fun p -> proc_off.(p) + head p);
    buf_off =
      Array.init nprocs (fun p ->
          proc_off.(p) + head p + (Array.length regs.(p) * vw));
    buf_cap;
    entry;
    seg_size;
    resv_locs;
    resv_row = index_of resv_locs;
    resv_off = !off;
    size = !off + (Array.length resv_locs * nprocs * cw);
  }

(* Layouts depend only on the program and the shape; keep the last few.
   An [Atomic] so exploration domains can race on it — a lost update
   merely rebuilds an immutable layout. *)
let cache : (Prog.t * shape * t) list Atomic.t = Atomic.make []

let cached prog shape =
  let entries = Atomic.get cache in
  match List.find_opt (fun (p, s, _) -> p == prog && s = shape) entries with
  | Some (_, _, l) -> l
  | None ->
      let l = make prog shape in
      Atomic.set cache
        ((prog, shape, l) :: List.filteri (fun i _ -> i < 7) entries);
      l

(* --- writing a key ------------------------------------------------------ *)

let create l = Bytes.make l.size '\000'

let put_be b off w code =
  for i = 0 to w - 1 do
    Bytes.unsafe_set b (off + i)
      (Char.unsafe_chr ((code lsr (8 * (w - 1 - i))) land 0xff))
  done

let put_value l b off v =
  let code = ((v lsl 1) lxor (v asr (Sys.int_size - 1))) + 1 in
  if code <= 0 || (l.vw < 8 && code lsr (8 * l.vw) <> 0) then
    failwith
      (Printf.sprintf "Layout: value %d does not fit the %d-byte encoding" v
         l.vw);
  put_be b off l.vw code

let put_count l b off v =
  if v < 0 || (l.cw < 8 && v lsr (8 * l.cw) <> 0) then
    failwith
      (Printf.sprintf "Layout: counter %d does not fit the %d-byte encoding" v
         l.cw);
  put_be b off l.cw v

let find what m name =
  match Smap.find_opt name m with
  | Some i -> i
  | None -> failwith (Printf.sprintf "Layout: %s %S is not laid out" what name)

let set_memory l b mem =
  Smap.iter
    (fun loc v -> put_value l b (find "location" l.loc_id loc * l.vw) v)
    mem

let set_regs l b p regs =
  let ids = l.reg_id.(p) and off = l.reg_off.(p) in
  Smap.iter
    (fun r v -> put_value l b (off + (find "register" ids r * l.vw)) v)
    regs

let set_counter l b p i v = put_count l b (l.proc_off.(p) + (i * l.cw)) v

let set_mask l b p m =
  let off = l.mask_off.(p) in
  let n = l.reg_off.(p) - off in
  if n < 8 && m lsr (8 * n) <> 0 then
    failwith (Printf.sprintf "Layout: mask of P%d does not fit %d byte(s)" p n);
  for i = 0 to n - 1 do
    Bytes.unsafe_set b (off + i) (Char.unsafe_chr ((m lsr (8 * i)) land 0xff))
  done

let entry_off l p slot =
  if slot >= l.buf_cap.(p) then
    failwith
      (Printf.sprintf "Layout: buffer of P%d exceeds its %d entries" p
         l.buf_cap.(p));
  l.buf_off.(p) + (slot * l.entry)

let set_entry l b p slot loc v =
  let off = entry_off l p slot in
  Bytes.unsafe_set b off (Char.unsafe_chr (find "location" l.loc_id loc + 1));
  put_value l b (off + 1) v

let set_entry_counter l b p slot j v =
  put_count l b (entry_off l p slot + 1 + l.vw + (j * l.cw)) v

let set_reservation l b ~loc ~proc v =
  let row = find "reservation location" l.resv_row loc in
  put_count l b (l.resv_off + (((row * l.nprocs) + proc) * l.cw)) (v + 1)

let key b = Bytes.unsafe_to_string b

(* --- automorphisms as index maps ---------------------------------------- *)

type map = { src : int array; tables : string array }

let identity_table = String.init 256 Char.chr

let index_map l ~proc ~loc ~reg =
  let src = Array.init l.size Fun.id in
  let tables = Array.make l.size identity_table in
  let copy ~dst ~from n =
    for i = 0 to n - 1 do
      src.(dst + i) <- from + i
    done
  in
  let relabel =
    let t = Bytes.of_string identity_table in
    Array.iteri
      (fun i name ->
        Bytes.set t (i + 1)
          (Char.chr (find "location" l.loc_id (loc name) + 1)))
      l.locs;
    Bytes.to_string t
  in
  Array.iteri
    (fun i name ->
      copy
        ~dst:(find "location" l.loc_id (loc name) * l.vw)
        ~from:(i * l.vw) l.vw)
    l.locs;
  for p = 0 to l.nprocs - 1 do
    let q = proc p in
    if l.seg_size.(q) <> l.seg_size.(p) then
      invalid_arg "Layout.index_map: processor segments differ in shape";
    (* counters and mask move with the processor unchanged *)
    copy ~dst:l.proc_off.(q) ~from:l.proc_off.(p)
      (l.reg_off.(p) - l.proc_off.(p));
    Array.iteri
      (fun i r ->
        copy
          ~dst:(l.reg_off.(q) + (find "register" l.reg_id.(q) (reg p r) * l.vw))
          ~from:(l.reg_off.(p) + (i * l.vw))
          l.vw)
      l.regs.(p);
    for s = 0 to l.buf_cap.(p) - 1 do
      let d = l.buf_off.(q) + (s * l.entry) in
      copy ~dst:d ~from:(l.buf_off.(p) + (s * l.entry)) l.entry;
      tables.(d) <- relabel
    done
  done;
  Array.iteri
    (fun row name ->
      let row' = find "reservation location" l.resv_row (loc name) in
      for p = 0 to l.nprocs - 1 do
        copy
          ~dst:(l.resv_off + (((row' * l.nprocs) + proc p) * l.cw))
          ~from:(l.resv_off + (((row * l.nprocs) + p) * l.cw))
          l.cw
      done)
    l.resv_locs;
  { src; tables }
