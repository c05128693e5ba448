(* Execution traces of the timing simulator, and a mechanical check of the
   Section 5.1 sufficient conditions over them.

   Every memory operation a processor performs is recorded with its
   generation time (when the processor produced it), commit time, and
   globally-performed time.  The checker then validates, on the actual run:

   - condition 2: writes to the same location are totally ordered by their
     commit times;
   - condition 3: synchronization operations to the same location commit in
     a total order and are globally performed in that same order;
   - condition 4: no access is generated before all program-earlier
     synchronization operations of its processor have committed;
   - condition 5: once a synchronization operation S by Pi has committed,
     no other processor's synchronization operation on the same location
     commits until all Pi reads before S have committed and all Pi writes
     before S are globally performed.

   Condition 1 (intra-processor dependencies) is structural in the
   processor model — operations execute in program order per thread — and
   has no per-event content to check. *)

type ev = {
  ep : int;  (** processor *)
  eidx : int;  (** per-processor operation sequence number *)
  sync : bool;
  reads : bool;
  writes : bool;
  eloc : string;
  egen : int;  (** generation time *)
  ecommit : int;  (** -1 if never committed *)
  egp : int;  (** -1 if never globally performed *)
}

(* The log: [width] ints per operation.  Column 0 packs the processor
   (low 20 bits), the sync/reads/writes flags (3 bits) and the line id;
   columns 1-3 are the generation, commit and globally-performed cycles.
   The per-processor index is not stored: it is the operation's rank among
   its processor's rows, recomputed by [events]. *)
type log = {
  nprocs : int;
  names : string array;
  mutable rows : int array;
  mutable n : int;
}

let width = 4
let proc_bits = 20

let create ~nprocs ~names =
  if nprocs > 1 lsl proc_bits then
    invalid_arg
      (Printf.sprintf "Sim_trace.create: %d processors exceed the log's %d"
         nprocs (1 lsl proc_bits));
  { nprocs; names; rows = Array.make (1024 * width) 0; n = 0 }

let record log ~proc ~sync ~reads ~writes ~line ~gen =
  let i = log.n in
  if (i + 1) * width > Array.length log.rows then begin
    let bigger = Array.make (2 * Array.length log.rows) 0 in
    Array.blit log.rows 0 bigger 0 (i * width);
    log.rows <- bigger
  end;
  let flags =
    Bool.to_int sync lor (Bool.to_int reads lsl 1) lor (Bool.to_int writes lsl 2)
  in
  let o = i * width in
  log.rows.(o) <- proc lor (flags lsl proc_bits) lor (line lsl (proc_bits + 3));
  log.rows.(o + 1) <- gen;
  log.rows.(o + 2) <- -1;
  log.rows.(o + 3) <- -1;
  log.n <- i + 1;
  i

let set_commit log i cycle = log.rows.((i * width) + 2) <- cycle
let set_gp log i cycle = log.rows.((i * width) + 3) <- cycle
let length log = log.n

let events log =
  let seq = Array.make log.nprocs 0 in
  let event i =
    let o = i * width in
    let key = log.rows.(o) in
    let ep = key land ((1 lsl proc_bits) - 1) in
    let flags = key lsr proc_bits in
    let eidx = seq.(ep) in
    seq.(ep) <- eidx + 1;
    {
      ep;
      eidx;
      sync = flags land 1 <> 0;
      reads = flags land 2 <> 0;
      writes = flags land 4 <> 0;
      eloc = log.names.(key lsr (proc_bits + 3));
      egen = log.rows.(o + 1);
      ecommit = log.rows.(o + 2);
      egp = log.rows.(o + 3);
    }
  in
  (* [Array.init] applies [event] in index order, as [eidx] needs. *)
  Array.to_list (Array.init log.n event)

let pp_ev ppf e =
  Fmt.pf ppf "P%d#%d %s%s%s %s gen=%d commit=%d gp=%d" e.ep e.eidx
    (if e.sync then "S" else "")
    (if e.reads then "R" else "")
    (if e.writes then "W" else "")
    e.eloc e.egen e.ecommit e.egp

type violation = { condition : int; message : string }

let pp_violation ppf v =
  Fmt.pf ppf "condition %d: %s" v.condition v.message

let violation condition fmt =
  Format.kasprintf (fun message -> { condition; message }) fmt

let by_loc evs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let cur = try Hashtbl.find tbl e.eloc with Not_found -> [] in
      Hashtbl.replace tbl e.eloc (e :: cur))
    evs;
  Hashtbl.fold (fun loc es acc -> (loc, List.rev es) :: acc) tbl []

let completed evs = List.filter (fun e -> e.ecommit >= 0) evs

let check_condition2 evs =
  let writes = List.filter (fun e -> e.writes) (completed evs) in
  List.concat_map
    (fun (loc, es) ->
      (* Same-processor ties are ordered by program order (retries released
         from one in-flight transaction execute back-to-back); only ties
         between different processors would leave the order undefined. *)
      let sorted = List.sort (fun a b -> compare a.ecommit b.ecommit) es in
      let rec dups = function
        | a :: (b :: _ as rest) ->
            if a.ecommit = b.ecommit && a.ep <> b.ep then
              violation 2 "writes to %s commit simultaneously (%a / %a)" loc
                pp_ev a pp_ev b
              :: dups rest
            else dups rest
        | [] | [ _ ] -> []
      in
      dups sorted)
    (by_loc writes)

let check_condition3 evs =
  (* Ties in commit time leave the total order free to break them either
     way (e.g. a spin read hitting a stale copy in the same cycle a foreign
     sync write commits), so only strict commit inequalities constrain the
     global-performance order. *)
  let syncs = List.filter (fun e -> e.sync) (completed evs) in
  List.concat_map
    (fun (loc, es) ->
      List.concat_map
        (fun a ->
          List.filter_map
            (fun b ->
              if
                a.ecommit < b.ecommit
                && a.egp >= 0
                && b.egp >= 0
                && a.egp > b.egp
              then
                Some
                  (violation 3
                     "syncs on %s globally perform out of commit order (%a / %a)"
                     loc pp_ev a pp_ev b)
              else None)
            es)
        es)
    (by_loc syncs)

let check_condition4 evs =
  let evs = completed evs in
  List.concat_map
    (fun e ->
      List.filter_map
        (fun s ->
          if
            s.ep = e.ep && s.sync
            && s.eidx < e.eidx
            && s.ecommit >= 0
            && e.egen < s.ecommit
          then
            Some
              (violation 4 "%a generated before earlier sync committed (%a)"
                 pp_ev e pp_ev s)
          else None)
        evs)
    evs

let check_condition5 evs =
  let evs = completed evs in
  let syncs = List.filter (fun e -> e.sync) evs in
  let check_pair s s' =
    (* s by Pi commits before s' (another processor, same location): the
       reads of Pi before s must have committed, and its writes before s
       must be globally performed, by s'.commit. *)
    List.filter_map
      (fun o ->
        if o.ep <> s.ep || o.eidx >= s.eidx then None
        else if o.reads && o.ecommit > s'.ecommit then
          Some
            (violation 5 "%a not committed before foreign sync %a" pp_ev o
               pp_ev s')
        else if o.writes && (o.egp < 0 || o.egp > s'.ecommit) then
          Some
            (violation 5 "%a not globally performed before foreign sync %a"
               pp_ev o pp_ev s')
        else None)
      evs
  in
  List.concat_map
    (fun s ->
      List.concat_map
        (fun s' ->
          if
            s'.ep <> s.ep
            && String.equal s'.eloc s.eloc
            && s.ecommit < s'.ecommit
          then check_pair s s'
          else [])
        syncs)
    syncs

let check_all evs =
  check_condition2 evs @ check_condition3 evs @ check_condition4 evs
  @ check_condition5 evs

(* --- timeline rendering ------------------------------------------------------ *)

(* A compact per-processor text timeline: each operation paints the span
   from its generation to its commit ('.' = idle, '-' = an operation in
   flight), with a letter at the commit column: r/w for data reads/writes,
   S for synchronization operations, and '!' overprinting the point where
   a sync's global performance lags its commit. *)
let pp_timeline ?(width = 72) ppf evs =
  let evs = completed evs in
  match evs with
  | [] -> Fmt.pf ppf "(empty trace)@."
  | _ ->
      let tmax =
        List.fold_left (fun m e -> max m (max e.ecommit e.egp)) 1 evs
      in
      let nprocs = 1 + List.fold_left (fun m e -> max m e.ep) 0 evs in
      let col t = min (width - 1) (t * width / (tmax + 1)) in
      let rows = Array.init nprocs (fun _ -> Bytes.make width '.') in
      List.iter
        (fun e ->
          let row = rows.(e.ep) in
          let c0 = col e.egen and c1 = col e.ecommit in
          for c = c0 to c1 - 1 do
            if Bytes.get row c = '.' then Bytes.set row c '-'
          done;
          let letter =
            if e.sync then 'S' else if e.writes then 'w' else 'r'
          in
          Bytes.set row c1 letter;
          if e.sync && e.egp > e.ecommit then begin
            let cg = col e.egp in
            if Bytes.get rows.(e.ep) cg = '.' then Bytes.set row cg '!'
          end)
        evs;
      Array.iteri
        (fun p row -> Fmt.pf ppf "P%d |%s|@." p (Bytes.to_string row))
        rows;
      Fmt.pf ppf "    0%*d cycles@." (width - 1) tmax
