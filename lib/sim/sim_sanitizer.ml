(* The coherence sanitizer: a runtime invariant monitor over the protocol
   state, run after every protocol state change (each delivered message's
   effects, via the [Proto.set_monitor] hook).

   Always-checkable invariants (hold in every reachable state, transient or
   not):

   - every outstanding-access counter is non-negative, and equals the
     number of in-flight transactions of its processor;
   - a reserve bit is set only while its processor's counter is positive
     (Section 5.3: all reserve bits clear when the counter reads zero);
   - the deferred-request queue of a processor is non-empty only while its
     counter is positive (it drains at counter-zero).

   Quiescent-line invariants (meaningful only when no transaction, queued
   request or network message concerns the line — mid-transaction the
   directory deliberately runs ahead of the caches):

   - single-writer / multiple-reader: at most one M copy, and never an M
     copy alongside S copies;
   - directory/cache agreement: [Exclusive p] iff exactly P[p] holds the
     line in M; every S copy's holder is in the sharer set of a [Shared]
     directory entry; a sharer listed by the directory holds the line in
     S (the converse — a cache dropping a clean copy — would be benign,
     but our caches are unbounded so copies are never dropped); every
     shared/uncached copy agrees with the directory's memory value.

   A violation aborts the run with [Violation], carrying a diagnostic that
   names the broken invariant and embeds the full protocol dump (per-line
   directory state, caches, in-flight transactions, event-journal tail). *)

exception Violation of string

type t = { proto : Proto.t; mutable checks : int }

let fail t fmt =
  Format.kasprintf
    (fun s -> raise (Violation (s ^ "\n" ^ Proto.dump t.proto)))
    fmt

let check_counters t =
  let p = t.proto in
  let open_by_proc = Array.make (Proto.nprocs p) 0 in
  List.iter
    (fun (_, proc, _) -> open_by_proc.(proc) <- open_by_proc.(proc) + 1)
    (Proto.open_txns p);
  for proc = 0 to Proto.nprocs p - 1 do
    let c = Proto.counter p proc in
    if c < 0 then fail t "sanitizer: P%d counter is negative (%d)" proc c;
    if c <> open_by_proc.(proc) then
      fail t
        "sanitizer: P%d counter=%d but %d in-flight transaction(s) — the \
         outstanding-access count drifted"
        proc c open_by_proc.(proc);
    if c = 0 && Proto.deferred_count p proc > 0 then
      fail t
        "sanitizer: P%d holds %d deferred request(s) with counter zero — \
         the stalled-request queue must drain at counter-zero"
        proc (Proto.deferred_count p proc);
    if c = 0 then
      for line = 0 to Proto.nlines p - 1 do
        if Proto.line_reserved p proc line then
          fail t
            "sanitizer: P%d holds %s reserved with counter zero — reserve \
             bits must clear when the counter reads zero"
            proc (Proto.line_name p line)
      done
  done

(* The processors holding [line] modified and shared, highest first. *)
let copies t line =
  let p = t.proto in
  let ms = ref [] and ss = ref [] in
  for proc = 0 to Proto.nprocs p - 1 do
    match Proto.line_state p proc line with
    | Proto.M -> ms := proc :: !ms
    | Proto.S -> ss := proc :: !ss
    | Proto.I -> ()
  done;
  (!ms, !ss)

let check_line t line =
  let p = t.proto in
  if Proto.line_quiescent p line then begin
    let loc = Proto.line_name p line in
    let ms, ss = copies t line in
    (match ms with
    | [] | [ _ ] -> ()
    | _ ->
        fail t "sanitizer: %s has %d modified copies (single-writer broken)"
          loc (List.length ms));
    (match (ms, ss) with
    | m :: _, s :: _ ->
        fail t
          "sanitizer: %s modified at P%d while shared at P%d — a stale \
           reader copy survived a write (single-writer/multiple-reader \
           broken)"
          loc m s
    | _ -> ());
    match Proto.dir_state p line with
    | Proto.Exclusive owner -> (
        match ms with
        | [ m ] when m = owner -> ()
        | [] ->
            fail t
              "sanitizer: directory says %s is Exclusive P%d but P%d holds \
               no modified copy"
              loc owner owner
        | m :: _ ->
            fail t
              "sanitizer: directory says %s is Exclusive P%d but P%d holds \
               it modified"
              loc owner m)
    | Proto.Shared sharers ->
        (match ms with
        | [] -> ()
        | m :: _ ->
            fail t
              "sanitizer: directory says %s is Shared but P%d holds it \
               modified"
              loc m);
        List.iter
          (fun s ->
            if not (Iset.mem s sharers) then
              fail t
                "sanitizer: P%d holds %s shared but the directory does not \
                 list it as a sharer"
                s loc;
            let v = Proto.line_value p s line in
            if v <> Proto.memory_value p line then
              fail t
                "sanitizer: P%d's shared copy of %s reads %d but memory \
                 holds %d"
                s loc v
                (Proto.memory_value p line))
          ss;
        Iset.iter
          (fun s ->
            if not (List.mem s ss) then
              fail t
                "sanitizer: directory lists P%d as a sharer of %s but its \
                 cache holds no shared copy"
                s loc)
          sharers
    | Proto.Uncached -> (
        match (ms, ss) with
        | [], [] -> ()
        | m :: _, _ | _, m :: _ ->
            fail t
              "sanitizer: directory says %s is Uncached but P%d holds a copy"
              loc m)
  end

(* One sweep walks the id-indexed protocol state directly: per processor
   for the counter invariants, per line for the agreement invariants. *)
let check t =
  t.checks <- t.checks + 1;
  check_counters t;
  for line = 0 to Proto.nlines t.proto - 1 do
    check_line t line
  done

let checks t = t.checks

(* Install the sanitizer on a protocol instance: every delivered message's
   effects are followed by a full invariant sweep. *)
let install proto =
  let t = { proto; checks = 0 } in
  Proto.set_monitor proto (fun () -> check t);
  t
