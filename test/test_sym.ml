(* Symmetry reduction: the automorphism group, the machines' [permute]
   implementations, orbit canonicalization, the sym/no-sym differential,
   and the syntactic program canonicalizer behind the batch service's
   symmetry cache key.

   The load-bearing properties:
   - orbit canonicalization is idempotent and constant on orbits (that is
     what makes the transposition-table probe sound);
   - every automorphism permutes the reachable key set (the machine-level
     [permute] really is an automorphism of the transition graph);
   - outcome sets are identical with the reduction on and off, and the
     reduced sweep never expands more states;
   - [Prog_canon.text] is invariant under thread permutation and
     location/register renaming, and distinguishes non-isomorphic
     programs. *)

let prog_of name =
  (Option.get (Litmus_classics.find name)).Litmus_classics.prog

(* --- machine-level orbit properties ---------------------------------- *)

module Probe (M : Machine_sig.MACHINE) = struct
  module H = Hashtbl.Make (String)

  (* Raw BFS (no reduction): the full reachable key set, or a prefix if
     the cap is hit.  The pointwise properties below hold on any prefix;
     the image-closure check needs the full set and is skipped on
     truncation. *)
  let reachable_keys layout prog cap =
    let seen = H.create 1024 in
    let q = Queue.create () in
    let add st =
      let k = M.canon layout st in
      if not (H.mem seen k) then (
        H.replace seen k ();
        Queue.push st q)
    in
    add (M.initial prog);
    let complete = ref true in
    while not (Queue.is_empty q) do
      if H.length seen > cap then (
        complete := false;
        Queue.clear q)
      else
        let st = Queue.pop q in
        List.iter add (M.successors prog st)
    done;
    (seen, !complete)

  let check name prog =
    let g = Sym.of_prog prog in
    if g.Sym.order <= 1 then
      Alcotest.failf "%s/%s: expected a nontrivial automorphism group" name
        M.name;
    let layout = Layout.cached prog M.shape in
    let maps = Sym.compile layout g in
    let seen, complete = reachable_keys layout prog 60_000 in
    (* Every automorphism maps reachable keys to reachable keys — checked
       only when the probe saw the whole graph (on a prefix the image may
       legitimately land past the cap). *)
    if complete then
      Array.iter
        (fun m ->
          H.iter
            (fun k () ->
              if not (H.mem seen (Sym.permute m k)) then
                Alcotest.failf
                  "%s/%s: image of a reachable key is unreachable" name
                  M.name)
            seen)
        maps;
    H.iter
      (fun k () ->
        let m = Sym.orbit_min maps k in
        if not (String.equal (Sym.orbit_min maps m) m) then
          Alcotest.failf "%s/%s: orbit_min is not idempotent" name M.name;
        Array.iter
          (fun p ->
            if not (String.equal (Sym.orbit_min maps (Sym.permute p k)) m)
            then
              Alcotest.failf
                "%s/%s: orbit_min differs across one orbit" name M.name)
          maps)
      seen
end

module Probe_def2 = Probe (M_def2.Base)
module Probe_wbuf = Probe (M_wbuf)
module Probe_ooo = Probe (M_ooo)

let test_orbit_properties () =
  List.iter
    (fun name ->
      let prog = prog_of name in
      Probe_def2.check name prog;
      Probe_wbuf.check name prog;
      Probe_ooo.check name prog)
    [ "iriw"; "big3" ]

let test_group_orders () =
  let order name = (Sym.of_prog (prog_of name)).Sym.order in
  Alcotest.(check int) "iriw group order" 2 (order "iriw");
  Alcotest.(check int) "big3 group order" 3 (order "big3");
  Alcotest.(check int) "big4 group order" 4 (order "big4")

(* --- packed-key faithfulness --------------------------------------------

   Every machine (and the SC semantics) must pack states into keys that
   keep exactly what the future depends on: equal keys mean equal
   outcomes and equal successor-key sets, a written 0 is not an unwritten
   slot, and compiled automorphisms act on keys the way the group acts on
   states. *)

module type KEYED = sig
  type state

  val name : string
  val initial : Prog.t -> state
  val successors : Prog.t -> state -> state list
  val final : Prog.t -> state -> Final.t option
  val layout : Prog.t -> Layout.t
  val canon : Layout.t -> state -> string
end

module Keyed (M : Machine_sig.MACHINE) = struct
  include M

  let layout prog = Layout.cached prog M.shape
end

module Sc_keyed = struct
  type state = Sem.state

  let name = "sc"
  let initial = Sem.initial

  let successors prog st =
    List.filter_map (Sem.step prog st)
      (List.init (Prog.num_threads prog) Fun.id)

  let final prog st =
    if Sem.all_done prog st then Some (Sem.final_of_state st) else None

  let layout = Sem.layout
  let canon = Sem.key
end

module Faithful (M : KEYED) = struct
  module H = Hashtbl.Make (String)

  (* Raw BFS from the initial state, capped at [cap] keys.  Every state
     met — new or a repeat of a recorded key — has its final and
     successor-key set computed; a repeat must agree with the record.
     Returns the table and whether the sweep saw the whole graph. *)
  let sweep label prog cap =
    let layout = M.layout prog in
    let tbl = H.create 256 in
    let q = Queue.create () in
    let complete = ref true in
    let visit st =
      let k = M.canon layout st in
      let succs = M.successors prog st in
      let keys =
        List.sort_uniq String.compare (List.map (M.canon layout) succs)
      in
      let final = M.final prog st in
      match H.find_opt tbl k with
      | Some (final0, keys0) ->
          if not (Option.equal Final.equal final final0) then
            Alcotest.failf "%s/%s: equal keys, different finals" label M.name;
          if keys <> keys0 then
            Alcotest.failf "%s/%s: equal keys, different successor keys" label
              M.name
      | None ->
          if H.length tbl >= cap then complete := false
          else begin
            H.add tbl k (final, keys);
            List.iter (fun s -> Queue.push s q) succs
          end
    in
    visit (M.initial prog);
    while not (Queue.is_empty q) do
      visit (Queue.pop q)
    done;
    (layout, tbl, !complete)

  (* On a complete sweep, each compiled automorphism maps the keyed graph
     onto itself: the image of a reachable key is reachable, its
     successor keys are the images of the successor keys, and its final
     is the image of the final. *)
  let check_group label prog layout tbl =
    let g = Sym.of_prog prog in
    List.iter2
      (fun pi m ->
        H.iter
          (fun k (final, keys) ->
            match H.find_opt tbl (Sym.permute m k) with
            | None ->
                Alcotest.failf "%s/%s: image of a reachable key is unreachable"
                  label M.name
            | Some (final', keys') ->
                if
                  not
                    (Option.equal Final.equal final'
                       (Option.map (Sym.apply_final pi) final))
                then
                  Alcotest.failf "%s/%s: image key, non-image final" label
                    M.name;
                let image =
                  List.sort_uniq String.compare (List.map (Sym.permute m) keys)
                in
                if keys' <> image then
                  Alcotest.failf "%s/%s: image key, non-image successors" label
                    M.name)
          tbl)
      g.Sym.perms
      (Array.to_list (Sym.compile layout g))

  let check label prog =
    let layout, tbl, complete = sweep label prog 3000 in
    if complete then check_group label prog layout tbl

  (* A written 0 and an unwritten slot pack differently: memory (a
     location initialised to 0 vs. one left out of the init list) and a
     register (an await that binds its register vs. one that does not,
     the register being written later either way so the layouts match;
     the later read is of the same location, so even the out-of-order
     machine fires the await first). *)
  let check_written_zero () =
    let key_of prog st =
      let l = M.layout prog in
      M.canon l st
    in
    let load = [ [ Instr.read "x" "r0" ] ] in
    let with_init = Prog.make ~name:"z" ~init:[ ("x", 0) ] load in
    let without = Prog.make ~name:"z" load in
    if
      String.equal
        (key_of with_init (M.initial with_init))
        (key_of without (M.initial without))
    then
      Alcotest.failf "%s: location written 0 packs like an unwritten one"
        M.name;
    let await reg =
      Prog.make ~name:"z"
        [
          [
            Instr.Await { kind = Instr.Data; loc = "x"; expect = 0; reg };
            Instr.read "x" "r0";
          ];
        ]
    in
    let bound = await (Some "r0") and unbound = await None in
    let after prog =
      match M.successors prog (M.initial prog) with
      | [ st ] -> key_of prog st
      | _ -> Alcotest.failf "%s: expected one successor of the await" M.name
    in
    if String.equal (after bound) (after unbound) then
      Alcotest.failf "%s: register written 0 packs like an unwritten one" M.name
end

let keyed : (module KEYED) list =
  [
    (module Sc_keyed);
    (module Keyed (M_wbuf));
    (module Keyed (M_ooo));
    (module Keyed (M_def1));
    (module Keyed (M_def2.Base));
    (module Keyed (M_def2.Read_sync_relaxed));
    (module Keyed (M_rp3));
    (module Keyed (M_rc));
  ]

let faithfulness_corpus () =
  List.map (fun e -> e.Litmus_classics.prog) Litmus_classics.all
  @ List.concat_map
      (fun profile ->
        let config = { Litmus_gen.default_config with Litmus_gen.profile } in
        List.init 500 (fun seed -> Litmus_gen.generate ~config seed))
      Litmus_gen.all_profiles

let test_key_faithfulness () =
  let corpus = faithfulness_corpus () in
  List.iter
    (fun (module M : KEYED) ->
      let module F = Faithful (M) in
      F.check_written_zero ();
      List.iter (fun prog -> F.check (Prog.name prog) prog) corpus)
    keyed

(* A value or counter the layout cannot hold raises; it is never
   truncated into a key that collides with a real one. *)
let test_key_range () =
  let prog =
    Prog.make ~name:"r" [ [ Instr.write "x" 1; Instr.read "x" "r0" ] ]
  in
  let l = Sem.layout prog in
  let raises f =
    match f (Layout.create l) with
    | () -> false
    | exception Failure _ -> true
  in
  let mem x v b = Layout.set_memory l b (Exp.Smap.singleton x v) in
  Alcotest.(check bool) "value out of range" true (raises (mem "x" 1_000_000));
  Alcotest.(check bool) "counter out of range" true
    (raises (fun b -> Layout.set_counter l b 0 0 256));
  Alcotest.(check bool) "unknown register" true
    (raises (fun b -> Layout.set_regs l b 0 (Exp.Smap.singleton "r9" 0)));
  Alcotest.(check bool) "values in range fit" false (raises (mem "x" (-1)))

(* --- sym / no-sym differential --------------------------------------- *)

let machines () =
  List.map
    (fun n -> Option.get (Machines.find n))
    [ "def2"; "wbuf"; "ooo" ]

let explore_states ~sym m prog =
  let rcfg = { Explore.rcfg_default with Explore.sym } in
  let r = Machines.explore ~rcfg m prog in
  Alcotest.(check bool) "complete" true
    (Explore.is_complete r.Explore.result);
  (Explore.bounded_value r.Explore.result,
   r.Explore.stats.Explore.states_expanded)

let check_differential label m prog =
  let set_off, states_off = explore_states ~sym:false m prog in
  let set_on, states_on = explore_states ~sym:true m prog in
  if not (Final.Set.equal set_off set_on) then
    Alcotest.failf "%s/%s: symmetry reduction changed the outcome set"
      label (Machines.name m);
  if states_on > states_off then
    Alcotest.failf "%s/%s: reduced sweep expanded more states (%d > %d)"
      label (Machines.name m) states_on states_off

let test_differential_classics () =
  List.iter
    (fun name ->
      let prog = prog_of name in
      List.iter (fun m -> check_differential name m prog) (machines ()))
    [ "iriw"; "big3"; "dekker"; "mp_sync" ]

let test_differential_generated () =
  (* Generated corpus: most seeds have trivial groups (the reduction must
     be an exact no-op there), a few are symmetric — both sides of the
     contract get exercised. *)
  let seeds = List.init 12 Fun.id in
  let progs =
    List.filter_map
      (fun seed -> Litmus_gen.generate_live ~max_attempts:20 seed)
      seeds
  in
  Alcotest.(check bool) "some generated programs" true (progs <> []);
  List.iter
    (fun prog ->
      List.iter
        (fun m -> check_differential (Prog.name prog) m prog)
        (machines ()))
    progs

let test_reduction_bites () =
  (* The acceptance bar: on big3 at least one machine drops >= 30% of its
     states under symmetry, outcomes identical (checked above). *)
  let prog = prog_of "big3" in
  let best =
    List.fold_left
      (fun acc m ->
        let _, off = explore_states ~sym:false m prog in
        let _, on = explore_states ~sym:true m prog in
        let pct =
          float_of_int (off - on) /. float_of_int off *. 100.
        in
        Float.max acc pct)
      0. (machines ())
  in
  if best < 30. then
    Alcotest.failf "big3: best state reduction %.1f%% < 30%%" best

let test_sc_differential () =
  List.iter
    (fun name ->
      let prog = prog_of name in
      let set_off, states_off, _ =
        Sc.explore_counted ~reduce:true ~sym:false prog
      in
      let set_on, states_on, _ =
        Sc.explore_counted ~reduce:true ~sym:true prog
      in
      Alcotest.(check bool) (name ^ ": sc outcome sets equal") true
        (Final.Set.equal set_off set_on);
      Alcotest.(check bool) (name ^ ": sc states not worse") true
        (states_on <= states_off))
    [ "iriw"; "big3" ]

(* --- outcome-set closure under the group ------------------------------ *)

let test_final_closure () =
  List.iter
    (fun name ->
      let prog = prog_of name in
      let g = Sym.of_prog prog in
      List.iter
        (fun m ->
          let set = Machines.outcomes m prog in
          List.iter
            (fun p ->
              let image = Final.Set.map (Sym.apply_final p) set in
              if not (Final.Set.equal image set) then
                Alcotest.failf
                  "%s/%s: outcome set is not closed under the group" name
                  (Machines.name m))
            g.Sym.perms)
        (machines ()))
    [ "iriw"; "big3" ]

(* --- syntactic program canonicalization ------------------------------- *)

let sb_a =
  "name a\n\
   { x=0; y=0 }\n\
   P0         | P1         ;\n\
   W x 1      | W y 1      ;\n\
   r0 := R y  | r1 := R x  ;\n\
   exists (0:r0=0)\n"

(* [sb_a] with the threads swapped, locations renamed x<->a-style and
   fresh register names — a pure renaming, so the canonical text must be
   identical. *)
let sb_b =
  "name b\n\
   { a=0; b=0 }\n\
   P0         | P1         ;\n\
   W b 1      | W a 1      ;\n\
   s9 := R a  | t3 := R b  ;\n\
   exists (1:t3=0)\n"

(* Not a renaming of [sb_a]: one written value differs. *)
let sb_c =
  "name c\n\
   { x=0; y=0 }\n\
   P0         | P1         ;\n\
   W x 2      | W y 1      ;\n\
   r0 := R y  | r1 := R x  ;\n\
   exists (0:r0=0)\n"

let test_prog_canon () =
  let parse = Litmus_parse.parse_string in
  let a = parse sb_a and b = parse sb_b and c = parse sb_c in
  Alcotest.(check string) "renaming-invariant" (Prog_canon.text a)
    (Prog_canon.text b);
  Alcotest.(check bool) "distinguishes non-isomorphic programs" true
    (Prog_canon.text a <> Prog_canon.text c);
  (* Idempotence at the program level: canonical text is a function of
     the canonical text (re-deriving it from the same program is
     stable). *)
  Alcotest.(check string) "stable" (Prog_canon.text a) (Prog_canon.text a)

let test_sym_cache_key () =
  let parse = Litmus_parse.parse_string in
  let a = parse sb_a and b = parse sb_b in
  let k p = Verdict_cache.sym_key ~prog:p ~machine:"def2" ~model:"drf0" in
  Alcotest.(check string) "isomorphic programs share the sym key" (k a)
    (k b);
  Alcotest.(check bool) "sym key is not the exact key" true
    (k a <> Verdict_cache.key ~prog:a ~machine:"def2" ~model:"drf0");
  Alcotest.(check bool) "sym key separates machines" true
    (k a <> Verdict_cache.sym_key ~prog:a ~machine:"ooo" ~model:"drf0")

let suite =
  ( "sym",
    [
      Alcotest.test_case "group orders" `Quick test_group_orders;
      Alcotest.test_case "orbit canonicalization properties" `Slow
        test_orbit_properties;
      Alcotest.test_case "packed keys are faithful" `Slow
        test_key_faithfulness;
      Alcotest.test_case "packed keys refuse out-of-range values" `Quick
        test_key_range;
      Alcotest.test_case "differential on classics" `Quick
        test_differential_classics;
      Alcotest.test_case "differential on generated programs" `Slow
        test_differential_generated;
      Alcotest.test_case "reduction reaches the 30%% floor" `Quick
        test_reduction_bites;
      Alcotest.test_case "sc enumerator differential" `Quick
        test_sc_differential;
      Alcotest.test_case "outcome sets closed under the group" `Quick
        test_final_closure;
      Alcotest.test_case "program canonicalization" `Quick test_prog_canon;
      Alcotest.test_case "symmetry cache key" `Quick test_sym_cache_key;
    ] )
