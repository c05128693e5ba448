(* A tiered exact visited store: a hot in-RAM set of key strings in front
   of immutable sorted runs on disk.  The replacement for the lossy
   Bloom-degradation path — memory pressure now means "flush the hot tier
   to a new run and keep going", and the store stays exact, so the sweep
   stays Complete.

   Keys are opaque byte strings (the engine's packed state keys, see
   [Layout]), ordered by [String.compare].  A probe walks:

     hot table  ->  per-run Bloom front-filter  ->  sparse block index
                ->  one CRC-checked block read + scan

   Runs are written once, atomically (temp file + rename), and never
   rewritten: a snapshot taken at any moment names a set of immutable
   files, so crash/resume just re-opens them.  Each run file is

     "WOSPILL1 <keys> <blocks>\n"
     repeated blocks:  "<bodylen> <crc32hex> <count>\n" <body>

   where a body is a prefix-compressed sorted key sequence: per key, the
   shared-prefix length with the previous key and the suffix length as
   decimal ASCII, then the suffix bytes.  The per-run Bloom filter and the
   (first key, offset) block index are rebuilt by scanning the file — they
   are derived data, never trusted from a snapshot.

   Every operation takes the store's mutex, so the parallel engine's
   domains can share one store as their claim table. *)

let block_keys = 256
let magic = "WOSPILL1"

type run = {
  file : string;  (* absolute path *)
  count : int;
  bloom : Bloom.t;
  index : (string * int) array;  (* first key of each block, byte offset *)
  mutable chan : in_channel option;  (* lazily opened, kept open *)
  mutable cached_block : (int * string array) option;
      (* last block read: offset, decoded keys *)
}

type t = {
  dir : string;
  threshold : int;
  lock : Mutex.t;
  hot : (string, unit) Hashtbl.t;
  mutable runs : run list;  (* newest first *)
  mutable next_run : int;
  mutable spilled_keys : int;
  mutable probes : int;
  mutable bloom_skips : int;
}

type stats = {
  st_hot : int;
  st_runs : int;
  st_spilled_keys : int;
  st_probes : int;
  st_bloom_skips : int;
  st_disk_bytes : int;
}

exception Corrupt of string

let key_hashes key =
  (Hashtbl.hash_param 64 256 key, Hashtbl.seeded_hash 0x9e3779b9 key)

let run_name i = Printf.sprintf "run-%06d.spill" i

let is_run_file name =
  String.length name > 10
  && String.sub name 0 4 = "run-"
  && Filename.check_suffix name ".spill"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ~dir ~threshold =
  if threshold < 1 then invalid_arg "Spill_store.create: threshold must be >= 1";
  mkdir_p dir;
  (* A fresh store owns the directory's run namespace: leftovers from a
     previous (completed or abandoned) sweep are dead weight and would
     otherwise accumulate across a multi-program campaign. *)
  Array.iter
    (fun f ->
      if is_run_file f then
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  {
    dir;
    threshold;
    lock = Mutex.create ();
    hot = Hashtbl.create 4096;
    runs = [];
    next_run = 0;
    spilled_keys = 0;
    probes = 0;
    bloom_skips = 0;
  }

(* --- run encoding ----------------------------------------------------------- *)

let shared_prefix a b =
  let n = min (String.length a) (String.length b) in
  let i = ref 0 in
  while !i < n && a.[!i] = b.[!i] do
    incr i
  done;
  !i

let encode_block buf keys lo hi =
  Buffer.clear buf;
  let prev = ref "" in
  for i = lo to hi - 1 do
    let k = keys.(i) in
    let pl = shared_prefix !prev k in
    Buffer.add_string buf (string_of_int pl);
    Buffer.add_char buf ' ';
    Buffer.add_string buf (string_of_int (String.length k - pl));
    Buffer.add_char buf ' ';
    Buffer.add_substring buf k pl (String.length k - pl);
    prev := k
  done;
  Buffer.contents buf

let decode_block body count =
  let keys = Array.make count "" in
  let pos = ref 0 in
  let len = String.length body in
  let int_until stop =
    let s = !pos in
    while !pos < len && body.[!pos] <> stop do
      incr pos
    done;
    if !pos >= len then raise (Corrupt "spill block: truncated entry");
    let v =
      match int_of_string_opt (String.sub body s (!pos - s)) with
      | Some v when v >= 0 -> v
      | _ -> raise (Corrupt "spill block: bad entry length")
    in
    incr pos;
    v
  in
  (* [buf] holds the previous key in its first [prev] bytes: each key is
     its shared prefix (already in place) plus one blit of its suffix. *)
  let buf = ref (Bytes.create 64) and prev = ref 0 in
  for i = 0 to count - 1 do
    let pl = int_until ' ' in
    let sl = int_until ' ' in
    if pl > !prev || !pos + sl > len then
      raise (Corrupt "spill block: entry overruns block");
    if pl + sl > Bytes.length !buf then
      buf := Bytes.extend !buf 0 (pl + sl);
    Bytes.blit_string body !pos !buf pl sl;
    pos := !pos + sl;
    keys.(i) <- Bytes.sub_string !buf 0 (pl + sl);
    prev := pl + sl
  done;
  if !pos <> len then raise (Corrupt "spill block: trailing bytes");
  keys

(* Write the sorted key array as a run file and return the run (bloom and
   index built in the same pass). *)
let write_run t keys =
  let n = Array.length keys in
  let file = Filename.concat t.dir (run_name t.next_run) in
  t.next_run <- t.next_run + 1;
  let nblocks = (n + block_keys - 1) / block_keys in
  let bloom = Bloom.create ~bits:(10 * n) in
  let index = Array.make nblocks ("", 0) in
  let buf = Buffer.create (64 * block_keys) in
  Atomic_io.with_file file (fun oc ->
      output_string oc (Printf.sprintf "%s %d %d\n" magic n nblocks);
      let offset = ref (String.length magic + 1
                        + String.length (string_of_int n) + 1
                        + String.length (string_of_int nblocks) + 1) in
      for b = 0 to nblocks - 1 do
        let lo = b * block_keys and hi = min n ((b + 1) * block_keys) in
        let body = encode_block buf keys lo hi in
        let header =
          Printf.sprintf "%d %08x %d\n" (String.length body)
            (Crc32.digest body) (hi - lo)
        in
        index.(b) <- (keys.(lo), !offset);
        output_string oc header;
        output_string oc body;
        offset := !offset + String.length header + String.length body
      done);
  Array.iter
    (fun k ->
      let h1, h2 = key_hashes k in
      ignore (Bloom.add_mem bloom h1 h2))
    keys;
  { file; count = n; bloom; index; chan = None; cached_block = None }

(* Re-derive a run's bloom and index by scanning its file, validating
   every block CRC on the way — the resume path. *)
let scan_run file =
  let ic =
    try open_in_bin file
    with Sys_error msg -> raise (Corrupt msg)
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let header = try input_line ic with End_of_file -> raise (Corrupt (file ^ ": empty")) in
  let n, nblocks =
    match String.split_on_char ' ' header with
    | [ m; n; b ] when String.equal m magic -> (
        match (int_of_string_opt n, int_of_string_opt b) with
        | Some n, Some b when n >= 0 && b >= 0 -> (n, b)
        | _ -> raise (Corrupt (file ^ ": bad header")))
    | _ -> raise (Corrupt (file ^ ": bad magic"))
  in
  let bloom = Bloom.create ~bits:(10 * max n 1) in
  let index = Array.make (max nblocks 1) ("", 0) in
  let total = ref 0 in
  for b = 0 to nblocks - 1 do
    let offset = pos_in ic in
    let bh = try input_line ic with End_of_file -> raise (Corrupt (file ^ ": truncated")) in
    let blen, crc, count =
      match String.split_on_char ' ' bh with
      | [ l; c; k ] -> (
          match
            (int_of_string_opt l, int_of_string_opt ("0x" ^ c),
             int_of_string_opt k)
          with
          | Some l, Some c, Some k when l >= 0 && k >= 0 -> (l, c, k)
          | _ -> raise (Corrupt (file ^ ": bad block header")))
      | _ -> raise (Corrupt (file ^ ": bad block header"))
    in
    let body = really_input_string ic blen in
    if Crc32.digest body <> crc then
      raise (Corrupt (file ^ ": block CRC mismatch"));
    let keys = decode_block body count in
    if count > 0 then index.(b) <- (keys.(0), offset);
    Array.iter
      (fun k ->
        let h1, h2 = key_hashes k in
        ignore (Bloom.add_mem bloom h1 h2))
      keys;
    total := !total + count
  done;
  if !total <> n then raise (Corrupt (file ^ ": key count mismatch"));
  {
    file;
    count = n;
    bloom;
    index = (if nblocks = 0 then [||] else index);
    chan = None;
    cached_block = None;
  }

(* --- probing ---------------------------------------------------------------- *)

let run_channel r =
  match r.chan with
  | Some ic -> ic
  | None ->
      let ic = open_in_bin r.file in
      r.chan <- Some ic;
      ic

let read_block r offset =
  match r.cached_block with
  | Some (o, keys) when o = offset -> keys
  | _ ->
      let ic = run_channel r in
      seek_in ic offset;
      let bh = try input_line ic with End_of_file -> raise (Corrupt (r.file ^ ": truncated")) in
      let blen, crc, count =
        match String.split_on_char ' ' bh with
        | [ l; c; k ] -> (
            match
              (int_of_string_opt l, int_of_string_opt ("0x" ^ c),
               int_of_string_opt k)
            with
            | Some l, Some c, Some k when l >= 0 && k >= 0 -> (l, c, k)
            | _ -> raise (Corrupt (r.file ^ ": bad block header")))
        | _ -> raise (Corrupt (r.file ^ ": bad block header"))
      in
      let body = really_input_string ic blen in
      if Crc32.digest body <> crc then
        raise (Corrupt (r.file ^ ": block CRC mismatch"));
      let keys = decode_block body count in
      r.cached_block <- Some (offset, keys);
      keys

(* Greatest block whose first key is <= [key], by binary search. *)
let block_for r key =
  let lo = ref 0 and hi = ref (Array.length r.index - 1) in
  if !hi < 0 || String.compare key (fst r.index.(0)) < 0 then None
  else begin
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if String.compare (fst r.index.(mid)) key <= 0 then lo := mid
      else hi := mid - 1
    done;
    Some (snd r.index.(!lo))
  end

let run_mem t r key =
  let h1, h2 = key_hashes key in
  if not (Bloom.mem r.bloom h1 h2) then begin
    t.bloom_skips <- t.bloom_skips + 1;
    false
  end
  else
    match block_for r key with
    | None -> false
    | Some offset ->
        let keys = read_block r offset in
        let rec scan i =
          if i >= Array.length keys then false
          else
            let c = String.compare keys.(i) key in
            if c = 0 then true else if c > 0 then false else scan (i + 1)
        in
        scan 0

let mem_locked t key =
  Hashtbl.mem t.hot key || List.exists (fun r -> run_mem t r key) t.runs

let flush_locked t =
  if Hashtbl.length t.hot > 0 then begin
    let keys = Array.make (Hashtbl.length t.hot) "" in
    let i = ref 0 in
    Hashtbl.iter
      (fun k () ->
        keys.(!i) <- k;
        incr i)
      t.hot;
    Array.sort String.compare keys;
    let r = write_run t keys in
    t.runs <- r :: t.runs;
    t.spilled_keys <- t.spilled_keys + Array.length keys;
    Hashtbl.reset t.hot
  end

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let mem t key =
  with_lock t @@ fun () ->
  t.probes <- t.probes + 1;
  mem_locked t key

let add t key =
  with_lock t @@ fun () ->
  t.probes <- t.probes + 1;
  if mem_locked t key then false
  else begin
    Hashtbl.add t.hot key ();
    if Hashtbl.length t.hot >= t.threshold then flush_locked t;
    true
  end

let flush t = with_lock t (fun () -> flush_locked t)
let hot_size t = with_lock t @@ fun () -> Hashtbl.length t.hot

let total t =
  with_lock t @@ fun () -> Hashtbl.length t.hot + t.spilled_keys

let stats t =
  with_lock t @@ fun () ->
  {
    st_hot = Hashtbl.length t.hot;
    st_runs = List.length t.runs;
    st_spilled_keys = t.spilled_keys;
    st_probes = t.probes;
    st_bloom_skips = t.bloom_skips;
    st_disk_bytes =
      List.fold_left
        (fun a r ->
          a + (try (Unix.stat r.file).Unix.st_size with Unix.Unix_error _ -> 0))
        0 t.runs;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "%d hot key(s), %d run(s) on disk (%d key(s), %d byte(s)), %d probe(s), \
     %d bloom skip(s)"
    s.st_hot s.st_runs s.st_spilled_keys s.st_disk_bytes s.st_probes
    s.st_bloom_skips

(* --- snapshot state --------------------------------------------------------- *)

type state = {
  x_hot : string array;
  x_runs : string list;  (* run file basenames, newest first *)
}

let export t =
  with_lock t @@ fun () ->
  let hot = Array.make (Hashtbl.length t.hot) "" in
  let i = ref 0 in
  Hashtbl.iter
    (fun k () ->
      hot.(!i) <- k;
      incr i)
    t.hot;
  { x_hot = hot; x_runs = List.map (fun r -> Filename.basename r.file) t.runs }

let import ~dir ~threshold s =
  if threshold < 1 then invalid_arg "Spill_store.import: threshold must be >= 1";
  mkdir_p dir;
  let runs =
    List.map (fun base -> scan_run (Filename.concat dir base)) s.x_runs
  in
  (* Runs flushed after the snapshot was taken are orphans: their keys
     were still in the snapshot's hot tier (or will be re-explored), so
     keeping the files would only leak disk. *)
  let listed = List.map Filename.basename s.x_runs in
  Array.iter
    (fun f ->
      if is_run_file f && not (List.mem f listed) then
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  let next_run =
    List.fold_left
      (fun a base ->
        match int_of_string_opt (String.sub base 4 6) with
        | Some i -> max a (i + 1)
        | None -> a)
      0 listed
  in
  let hot = Hashtbl.create (max 4096 (Array.length s.x_hot)) in
  Array.iter (fun k -> Hashtbl.replace hot k ()) s.x_hot;
  {
    dir;
    threshold;
    lock = Mutex.create ();
    hot;
    runs;
    next_run;
    spilled_keys = List.fold_left (fun a r -> a + r.count) 0 runs;
    probes = 0;
    bloom_skips = 0;
  }

let close t =
  with_lock t @@ fun () ->
  List.iter
    (fun r ->
      match r.chan with
      | Some ic ->
          close_in_noerr ic;
          r.chan <- None
      | None -> ())
    t.runs
