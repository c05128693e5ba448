(* Unit tests for the program library: expressions, instructions, programs,
   conditions and final states. *)

open Instr

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let env_of bindings =
  List.fold_left (fun m (k, v) -> Exp.Smap.add k v m) Exp.Smap.empty bindings

(* --- Exp ----------------------------------------------------------------- *)

let test_exp_eval () =
  let env = env_of [ ("r0", 3); ("r1", 4) ] in
  check_int "const" 5 (Exp.eval env (Exp.Const 5));
  check_int "reg" 3 (Exp.eval env (Exp.Reg "r0"));
  check_int "add" 7 (Exp.eval env (Exp.Add (Exp.Reg "r0", Exp.Reg "r1")));
  check_int "sub" (-1) (Exp.eval env (Exp.Sub (Exp.Reg "r0", Exp.Reg "r1")));
  Alcotest.check_raises "unbound" (Exp.Unbound_register "zz") (fun () ->
      ignore (Exp.eval env (Exp.Reg "zz")))

let test_exp_registers () =
  let e = Exp.Add (Exp.Reg "a", Exp.Sub (Exp.Const 1, Exp.Reg "b")) in
  Alcotest.(check (list string)) "registers" [ "a"; "b" ] (Exp.registers e)

(* --- Instr --------------------------------------------------------------- *)

let test_instr_classification () =
  check "read is data" true (is_data (read "x" "r"));
  check "sync_write is sync" true (is_sync (sync_write "s" 1));
  check "tas reads" true (is_read (test_and_set "s" "r"));
  check "tas writes" true (is_write (test_and_set "s" "r"));
  check "fence is not access" false (is_access Fence);
  check "await blocks" true (is_blocking (await "s" 1));
  check "lock blocks" true (is_blocking (lock "l"));
  check "lock is sync rmw" true (is_sync (lock "l") && is_read (lock "l") && is_write (lock "l"));
  check "unlock is sync write" true (is_sync (unlock "l") && is_write (unlock "l"))

let test_instr_registers () =
  Alcotest.(check (option string))
    "load target" (Some "r")
    (target_register (read "x" "r"));
  Alcotest.(check (list string))
    "store sources" [ "r0" ]
    (source_registers (store "x" (Exp.Reg "r0")));
  (* The RMW's own register is bound to the old value, not a source. *)
  Alcotest.(check (list string))
    "fadd has no external sources" []
    (source_registers (fetch_and_add "c" "r" 1))

(* --- Prog validation ----------------------------------------------------- *)

let test_validate_ok () =
  let p = Litmus_classics.mp_sync.Litmus_classics.prog in
  check "mp_sync validates" true (Prog.validate p = Ok ())

let test_validate_catches_unassigned () =
  let p = Prog.make ~name:"bad" [ [ store "x" (Exp.Reg "never") ] ] in
  match Prog.validate p with
  | Error [ Prog.Unassigned_register (0, "never") ] -> ()
  | Error es ->
      Alcotest.failf "unexpected errors: %a"
        Fmt.(list ~sep:comma Prog.pp_error)
        es
  | Ok () -> Alcotest.fail "expected a validation error"

let test_validate_duplicate_init () =
  let p = Prog.make ~name:"dup" ~init:[ ("x", 0); ("x", 1) ] [ [] ] in
  check "duplicate init caught" true
    (match Prog.validate p with
    | Error es -> List.mem (Prog.Duplicate_init "x") es
    | Ok () -> false)

let test_validate_paper_strict () =
  let p = Prog.make ~name:"fenced" [ [ Fence ] ] in
  check "fence ok by default" true (Prog.validate p = Ok ());
  check "fence rejected when strict" true
    (match Prog.validate ~paper_strict:true p with
    | Error es -> List.mem (Prog.Fence_not_in_paper_model 0) es
    | Ok () -> false);
  let mixed =
    Prog.make ~name:"mixed" [ [ write "x" 1; sync_read "x" "r" ] ]
  in
  check "mixed sync/data location rejected when strict" true
    (match Prog.validate ~paper_strict:true mixed with
    | Error es -> List.mem (Prog.Mixed_sync_data_location "x") es
    | Ok () -> false)

let test_validate_bad_condition () =
  let p =
    Prog.make ~name:"badcond" ~exists:(Cond.Reg_eq (7, "r", 0)) [ [] ]
  in
  check "bad thread id in condition" true
    (match Prog.validate p with
    | Error es -> List.mem (Prog.Bad_condition_thread 7) es
    | Ok () -> false)

let test_prog_accessors () =
  let p = Litmus_classics.dekker.Litmus_classics.prog in
  check_int "threads" 2 (Prog.num_threads p);
  check_int "instrs" 4 (Prog.num_instrs p);
  Alcotest.(check (list string)) "locations" [ "x"; "y" ] (Prog.locations p);
  Alcotest.(check (list string))
    "sync locations of mp_sync" [ "f" ]
    (Prog.sync_locations Litmus_classics.mp_sync.Litmus_classics.prog)

(* --- Cond / Final -------------------------------------------------------- *)

let final_of ~mem ~regs =
  Final.make
    ~memory:(env_of mem)
    ~regs:(Array.map env_of (Array.of_list regs))

let test_cond_eval () =
  let f = final_of ~mem:[ ("x", 1) ] ~regs:[ [ ("r0", 0) ]; [] ] in
  check "mem_eq" true (Cond.eval f (Cond.Mem_eq ("x", 1)));
  check "mem default 0" true (Cond.eval f (Cond.Mem_eq ("y", 0)));
  check "reg_eq" true (Cond.eval f (Cond.Reg_eq (0, "r0", 0)));
  check "unassigned register fails" false (Cond.eval f (Cond.Reg_eq (1, "r9", 0)));
  check "and/or/not" true
    (Cond.eval f
       (Cond.And
          ( Cond.Or (Cond.Mem_eq ("x", 9), Cond.Mem_eq ("x", 1)),
            Cond.Not (Cond.Reg_eq (0, "r0", 5)) )));
  check "conj empty is true" true (Cond.eval f (Cond.conj []))

let test_final_compare () =
  let a = final_of ~mem:[ ("x", 1) ] ~regs:[ [] ] in
  let b = final_of ~mem:[ ("x", 2) ] ~regs:[ [] ] in
  check "equal self" true (Final.equal a a);
  check "differ" false (Final.equal a b);
  let s = Final.Set.of_list [ a; b; a ] in
  check_int "set dedups" 2 (Final.Set.cardinal s);
  (* The order is that of the binding lists under polymorphic compare, so
     outcome sets print in the same order however [compare] walks them. *)
  let reference f g =
    let b m = Exp.Smap.bindings m in
    compare
      (b f.Final.memory, Array.map b f.Final.regs)
      (b g.Final.memory, Array.map b g.Final.regs)
  in
  let finals =
    [
      a;
      b;
      final_of ~mem:[ ("x", 1); ("y", 0) ] ~regs:[ [] ];
      final_of ~mem:[ ("y", 0) ] ~regs:[ [] ];
      final_of ~mem:[ ("x", 1) ] ~regs:[ [ ("r0", 0) ] ];
      final_of ~mem:[ ("x", 1) ] ~regs:[ [ ("r0", -1) ]; [ ("r1", 2) ] ];
      final_of ~mem:[ ("x", 1) ] ~regs:[ [ ("r0", -1) ]; [ ("r0", 2) ] ];
      final_of ~mem:[ ("x", 1) ] ~regs:[ []; [] ];
    ]
  in
  List.iter
    (fun f ->
      List.iter
        (fun g ->
          check_int "same order as the binding lists"
            (Int.compare (reference f g) 0)
            (Int.compare (Final.compare f g) 0))
        finals)
    finals

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "program",
    [
      t "exp eval" test_exp_eval;
      t "exp registers" test_exp_registers;
      t "instr classification" test_instr_classification;
      t "instr registers" test_instr_registers;
      t "validate ok" test_validate_ok;
      t "validate unassigned register" test_validate_catches_unassigned;
      t "validate duplicate init" test_validate_duplicate_init;
      t "validate paper strict" test_validate_paper_strict;
      t "validate bad condition" test_validate_bad_condition;
      t "prog accessors" test_prog_accessors;
      t "cond eval" test_cond_eval;
      t "final compare" test_final_compare;
    ] )
