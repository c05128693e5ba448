(* The heap engine vs the Map reference engine (Engine_ref): a differential
   property test over random schedule trees — including same-cycle FIFO
   ties, zero delays and schedule-during-run — plus pins for the
   Out_of_time boundary and the executed/merged accounting. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A schedule tree: each node is one scheduled thunk that, when it runs,
   schedules its children.  Small delays maximize same-cycle collisions. *)
type spec = { id : int; delay : int; children : spec list }

(* Number nodes in planting order so both engines log identical ids. *)
let number forest =
  let ctr = ref 0 in
  let rec go { delay; children; _ } =
    let id = !ctr in
    incr ctr;
    { id; delay; children = List.map go children }
  in
  List.map go forest

let spec_gen =
  QCheck.Gen.(
    let node self depth =
      let* delay = int_bound 5 in
      let* nkids = if depth = 0 then return 0 else int_bound 3 in
      let* children = list_size (return nkids) (self (depth - 1)) in
      return { id = 0; delay; children }
    in
    let rec tree depth = node tree depth in
    map number (list_size (int_range 1 20) (tree 3)))

let rec pp_spec ppf { delay; children; _ } =
  Format.fprintf ppf "@[<h>%d[%a]@]" delay
    (Format.pp_print_list pp_spec)
    children

let arbitrary_forest =
  QCheck.make
    ~print:(Format.asprintf "%a" (Format.pp_print_list pp_spec))
    spec_gen

(* Drive any engine over a forest; the log of (node id, clock at execution)
   is the observable behaviour the implementations must agree on. *)
let drive ~schedule ~now ~run forest =
  let log = ref [] in
  let rec plant spec =
    schedule ~delay:spec.delay (fun () ->
        log := (spec.id, now ()) :: !log;
        List.iter plant spec.children)
  in
  List.iter plant forest;
  run ();
  List.rev !log

let drive_ref forest =
  let e = Engine_ref.create () in
  let log =
    drive
      ~schedule:(Engine_ref.schedule e)
      ~now:(fun () -> Engine_ref.now e)
      ~run:(fun () -> Engine_ref.run e)
      forest
  in
  (log, Engine_ref.executed e)

let drive_heap ~batch forest =
  let e = Engine.create ~batch () in
  let log =
    drive ~schedule:(Engine.schedule e)
      ~now:(fun () -> Engine.now e)
      ~run:(fun () -> Engine.run e)
      forest
  in
  (log, Engine.executed e, Engine.merged e)

let prop_heap_matches_ref =
  QCheck.Test.make ~name:"heap engine ≡ map engine (batch off)" ~count:500
    arbitrary_forest (fun forest ->
      let ref_log, ref_exec = drive_ref forest in
      let heap_log, heap_exec, heap_merged = drive_heap ~batch:false forest in
      ref_log = heap_log && ref_exec = heap_exec && heap_merged = 0)

let prop_batching_preserves_order =
  QCheck.Test.make ~name:"batched heap engine ≡ map engine" ~count:500
    arbitrary_forest (fun forest ->
      let ref_log, ref_exec = drive_ref forest in
      let heap_log, heap_exec, heap_merged = drive_heap ~batch:true forest in
      (* Same thunks in the same order at the same cycles; batching only
         moves the cell/thunk split in the accounting. *)
      ref_log = heap_log
      && heap_exec + heap_merged = ref_exec
      && heap_exec <= ref_exec)

(* Same-cycle FIFO: interleaved same-cycle schedules from outside and from
   inside a running event must run in insertion order on both engines. *)
let test_fifo_ties () =
  let forest =
    number
      [
        {
          id = 0;
          delay = 0;
          children =
            [
              { id = 0; delay = 0; children = [] };
              { id = 0; delay = 0; children = [] };
            ];
        };
        { id = 0; delay = 0; children = [] };
        { id = 0; delay = 0; children = [] };
      ]
  in
  let ref_log, _ = drive_ref forest in
  let heap_log, _, _ = drive_heap ~batch:true forest in
  check "insertion order" true (ref_log = heap_log);
  (* Planted 0,3,4 up front; 0 runs first and plants 1,2 which must run
     after the already-queued same-cycle 3,4. *)
  check_int "expected order" 0 (fst (List.nth ref_log 0));
  Alcotest.(check (list int))
    "ids in insertion order" [ 0; 3; 4; 1; 2 ] (List.map fst ref_log)

let test_out_of_time_boundary () =
  let at_limit create schedule run =
    let e = create () in
    let ran = ref false in
    schedule e ~delay:100 (fun () -> ran := true);
    run ~limit:100 e;
    !ran
  in
  check "heap: event at the limit runs" true
    (at_limit
       (fun () -> Engine.create ())
       Engine.schedule
       (fun ~limit e -> Engine.run ~limit e));
  check "ref: event at the limit runs" true
    (at_limit Engine_ref.create Engine_ref.schedule (fun ~limit e ->
         Engine_ref.run ~limit e));
  let past_limit () =
    let e = Engine.create () in
    Engine.schedule e ~delay:101 (fun () -> ());
    match Engine.run ~limit:100 e with
    | () -> false
    | exception Engine.Out_of_time ->
        (* The offending event was not consumed: the clock never advanced
           to it — matching the reference engine. *)
        Engine.now e = 0 && Engine.executed e = 0
  in
  check "heap: past the limit raises without consuming" true (past_limit ());
  let e = Engine.create () in
  check "negative delay rejected" true
    (match Engine.schedule e ~delay:(-1) (fun () -> ()) with
    | () -> false
    | exception Invalid_argument _ -> true)

(* Pin the executed/merged split on a known scenario: three consecutive
   same-cycle schedules merge into one cell; work scheduled same-cycle from
   inside the running cell starts a fresh cell (the reference order). *)
let test_executed_merged_pins () =
  let e = Engine.create ~batch:true () in
  let order = ref [] in
  let hit n () = order := n :: !order in
  Engine.schedule e ~delay:0 (fun () ->
      hit 0 ();
      Engine.schedule e ~delay:0 (hit 3);
      Engine.schedule e ~delay:0 (hit 4));
  Engine.schedule e ~delay:0 (hit 1);
  Engine.schedule e ~delay:0 (hit 2);
  Engine.run e;
  Alcotest.(check (list int)) "order" [ 0; 1; 2; 3; 4 ] (List.rev !order);
  check_int "cells executed" 2 (Engine.executed e);
  check_int "thunks merged" 3 (Engine.merged e);
  (* Batch off: one cell per thunk, reference accounting. *)
  let e = Engine.create ~batch:false () in
  Engine.schedule e ~delay:0 ignore;
  Engine.schedule e ~delay:0 ignore;
  Engine.run e;
  check_int "unbatched cells = thunks" 2 (Engine.executed e);
  check_int "unbatched merges none" 0 (Engine.merged e)

(* A cancellable event sits between ordinary same-cycle schedules: the
   later schedule must not merge into the cell created before it, or it
   would run ahead of the cancellable thunk. *)
let test_cancellable_tie_order () =
  let order ~batch =
    let e = Engine.create ~batch () in
    let log = ref [] in
    let hit n () = log := n :: !log in
    Engine.schedule e ~delay:3 (hit "a");
    ignore (Engine.schedule_cancellable e ~delay:3 (hit "b"));
    Engine.schedule e ~delay:3 (hit "c");
    Engine.run e;
    List.rev !log
  in
  Alcotest.(check (list string))
    "batch off: insertion order" [ "a"; "b"; "c" ] (order ~batch:false);
  Alcotest.(check (list string))
    "batch on: same order" (order ~batch:false) (order ~batch:true)

let test_running_since () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.schedule e ~delay:5 (fun () ->
      seen := ("outer", Engine.running_since e) :: !seen;
      Engine.schedule e ~delay:0 (fun () ->
          seen := ("inner", Engine.running_since e) :: !seen));
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "cells report their creation cycle"
    [ ("outer", 0); ("inner", 5) ]
    (List.rev !seen)

let suite =
  ( "engine",
    [
      QCheck_alcotest.to_alcotest prop_heap_matches_ref;
      QCheck_alcotest.to_alcotest prop_batching_preserves_order;
      Alcotest.test_case "same-cycle FIFO ties" `Quick test_fifo_ties;
      Alcotest.test_case "Out_of_time boundary" `Quick
        test_out_of_time_boundary;
      Alcotest.test_case "executed/merged accounting pins" `Quick
        test_executed_merged_pins;
      Alcotest.test_case "running_since reports cell creation" `Quick
        test_running_since;
      Alcotest.test_case "cancellable event keeps same-cycle order" `Quick
        test_cancellable_tie_order;
    ] )
