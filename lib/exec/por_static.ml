(* Static per-program facts shared by every partial-order reduction in the
   tree: the SC checker's candidate test, the DRF sync-order search and
   the abstract machines' independence oracles all ask the same
   questions — "can any other thread still touch this location?", "does
   this thread still have a synchronization-class instruction ahead of
   it?", "can anything left still block?" — and all of them are
   answerable once per program, not once per state.

   The answers come in two shapes:

   - suffix masks, indexed by a thread's next-instruction index: a 2-bit
     mask per location over the remaining instructions (bit 0: some access
     remains, bit 1: some write remains), for in-order machines whose
     progress is a program counter;
   - whole-thread location bitmasks (bit [j] set iff instruction [j]
     touches the location), for machines whose progress is an
     executed-instruction set (out-of-order issue). *)

type t = {
  instrs : Instr.t array array;  (** per-thread instruction arrays *)
  suffix : int Exp.Smap.t array array;
      (** [suffix.(p).(j)]: location -> 2-bit mask over thread [p]'s
          instructions from index [j] on; bit 0 access, bit 1 write *)
  sync_after : bool array array;
      (** [sync_after.(p).(j)]: a synchronization-class instruction (sync
          load/store/await, RMW, lock) remains at index >= [j] *)
  block_after : bool array array;
      (** [block_after.(p).(j)]: a blocking instruction ([Await], data or
          sync, or [Lock]) remains at index >= [j] *)
  loc_masks : (int * int) Exp.Smap.t array;
      (** per thread: location -> (access bitmask, write bitmask) over
          instruction indices *)
  loc_ids : int Exp.Smap.t;
      (** location -> dense id, in order of first appearance *)
  iloc : int array array;
      (** [iloc.(p).(j)]: dense id of the location instruction [j] of
          thread [p] touches, or [-1] for fences *)
  suffix_ids : int array array;
      (** [suffix_ids.(p).(j)]: the suffix masks again, 2 bits per dense
          location id (bit [2*id] access, bit [2*id+1] write) — the
          allocation-free fast path for hot per-state queries.  [[||]]
          when the program has too many locations to pack in one word;
          callers must fall back to {!access_remains}/{!write_remains}. *)
}

(* Instructions that commit through a machine's synchronization path
   (atomic-at-memory, reservation-placing, buffer-draining): everything
   except plain data accesses and fences. *)
let is_sync_class = function
  | Instr.Load { kind = Instr.Sync; _ }
  | Instr.Store { kind = Instr.Sync; _ }
  | Instr.Await { kind = Instr.Sync; _ }
  | Instr.Rmw _ | Instr.Lock _ ->
      true
  | Instr.Load _ | Instr.Store _ | Instr.Await _ | Instr.Fence -> false

let of_prog prog =
  let instrs = Array.of_list (List.map Array.of_list (Prog.threads prog)) in
  let suffix =
    Array.map
      (fun ins ->
        let n = Array.length ins in
        let out = Array.make (n + 1) Exp.Smap.empty in
        for j = n - 1 downto 0 do
          let m = out.(j + 1) in
          out.(j) <-
            (match Instr.location ins.(j) with
            | None -> m
            | Some l ->
                let prev = Option.value (Exp.Smap.find_opt l m) ~default:0 in
                let bits = if Instr.is_write ins.(j) then 3 else 1 in
                Exp.Smap.add l (prev lor bits) m)
        done;
        out)
      instrs
  in
  let remains pred =
    Array.map
      (fun ins ->
        let n = Array.length ins in
        let out = Array.make (n + 1) false in
        for j = n - 1 downto 0 do
          out.(j) <- out.(j + 1) || pred ins.(j)
        done;
        out)
      instrs
  in
  let sync_after = remains is_sync_class in
  let block_after = remains Instr.is_blocking in
  let loc_masks =
    Array.map
      (fun ins ->
        let m = ref Exp.Smap.empty in
        Array.iteri
          (fun j i ->
            match Instr.location i with
            | None -> ()
            | Some l ->
                let a, w =
                  Option.value (Exp.Smap.find_opt l !m) ~default:(0, 0)
                in
                let bit = 1 lsl j in
                m :=
                  Exp.Smap.add l
                    (a lor bit, if Instr.is_write i then w lor bit else w)
                    !m)
          ins;
        !m)
      instrs
  in
  let loc_ids =
    let next = ref 0 in
    Array.fold_left
      (Array.fold_left (fun m i ->
           match Instr.location i with
           | None -> m
           | Some l ->
               if Exp.Smap.mem l m then m
               else begin
                 let id = !next in
                 incr next;
                 Exp.Smap.add l id m
               end))
      Exp.Smap.empty instrs
  in
  let nlocs = Exp.Smap.cardinal loc_ids in
  let iloc =
    Array.map
      (Array.map (fun i ->
           match Instr.location i with
           | None -> -1
           | Some l -> Exp.Smap.find l loc_ids))
      instrs
  in
  let suffix_ids =
    if 2 * nlocs > Sys.int_size - 1 then [||]
    else
      Array.mapi
        (fun p ins ->
          let n = Array.length ins in
          let out = Array.make (n + 1) 0 in
          for j = n - 1 downto 0 do
            let bits =
              if iloc.(p).(j) < 0 then 0
              else
                (if Instr.is_write ins.(j) then 3 else 1)
                lsl (2 * iloc.(p).(j))
            in
            out.(j) <- out.(j + 1) lor bits
          done;
          out)
        instrs
  in
  {
    instrs;
    suffix;
    sync_after;
    block_after;
    loc_masks;
    loc_ids;
    iloc;
    suffix_ids;
  }

(* The facts depend only on the program; cache them across calls.  An
   [Atomic] so parallel exploration domains can race on it safely — a
   lost update merely recomputes the (immutable) tables. *)
let cache : (Prog.t * t) option Atomic.t = Atomic.make None

let cached prog =
  match Atomic.get cache with
  | Some (p, i) when p == prog -> i
  | Some _ | None ->
      let i = of_prog prog in
      Atomic.set cache (Some (prog, i));
      i

let clamp_index info p j = min j (Array.length info.suffix.(p) - 1)

let suffix_bits info ~p ~j loc =
  let j = clamp_index info p j in
  Option.value (Exp.Smap.find_opt loc info.suffix.(p).(j)) ~default:0

let access_remains info ~p ~j loc = suffix_bits info ~p ~j loc land 1 <> 0
let write_remains info ~p ~j loc = suffix_bits info ~p ~j loc land 2 <> 0

let sync_remains info ~p ~j =
  info.sync_after.(p).(min j (Array.length info.sync_after.(p) - 1))

let blocking_remains info ~p ~j =
  info.block_after.(p).(min j (Array.length info.block_after.(p) - 1))

let loc_bitmasks info ~p loc =
  Option.value (Exp.Smap.find_opt loc info.loc_masks.(p)) ~default:(0, 0)

let has_dense_ids info = Array.length info.suffix_ids > 0
let instr_loc_id info ~p ~j = info.iloc.(p).(j)

let suffix_id_bits info ~p ~j id =
  let j = min j (Array.length info.suffix_ids.(p) - 1) in
  info.suffix_ids.(p).(j) lsr (2 * id)

let access_remains_id info ~p ~j id =
  suffix_id_bits info ~p ~j id land 1 <> 0

let write_remains_id info ~p ~j id =
  suffix_id_bits info ~p ~j id land 2 <> 0
