(* The supervisor kernel under [weakord batch], [serve] and [fleet].

   One single-threaded event loop owns the whole life of a unit of work:
   per-owner FIFOs served round-robin, the fork of each attempt, the
   classification of its exit, the watchdog, retry backoff, drain, the
   throttled checkpoint, the JSONL stream, and the wire sockets.  The
   front ends keep only their policy: what a unit is, how it starts,
   and what each exit means for it.  No locking anywhere: signal
   handlers only flip a flag the loop reads at a safe point. *)

type state = Waiting | Backoff | Running | Finished
type files = { result : string; stderr : string; heartbeat : string }

type 'a work = {
  id : int;
  owner : int;
  payload : 'a;
  mutable attempts : int;
  mutable state : state;
  mutable eligible_at : float;
  mutable reason : string;
  mutable stderr_tail : string;
  mutable beat : string;
  mutable files : files;
}

let no_files = { result = ""; stderr = ""; heartbeat = "" }

let work ?(attempts = 0) ~id ~owner payload =
  {
    id;
    owner;
    payload;
    attempts;
    state = Waiting;
    eligible_at = 0.;
    reason = "";
    stderr_tail = "";
    beat = "";
    files = no_files;
  }

type exit = Exit_ok | Exit_parked | Exit_failed of string | Exit_hung
type sink = Stdout | Append of string | Discard

type 'a cfg = {
  noun : string;
  item : string;
  label : 'a -> string;
  slots : int;
  retries : int;
  backoff_ms : int;
  timeout_s : float;
  heartbeat : bool;
  resident : bool;
  out : sink;
  listen : (Unix.file_descr * string) option;
  max_clients : int;
  log : string -> unit;
  verbose : bool;
}

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_dec : Wire.decoder;
  c_out : Buffer.t;
  mutable c_hello : bool;
  mutable c_closing : bool;
  mutable c_submitted : int;
  mutable c_completed : int;
}

type 'a running = {
  r_work : 'a work;
  r_pid : int;
  r_started : float;
  mutable r_progress_at : float;
  mutable r_killed : bool;
  mutable r_term_sent : bool;
}

type 'a t = {
  cfg : 'a cfg;
  t0 : float;
  queues : (int, 'a work Queue.t) Hashtbl.t;
  mutable rotation : int list;
  mutable delayed : 'a work list;
  mutable running : 'a running list;
  mutable draining : bool;
  mutable announced : bool;
  mutable spawns : int;
  mutable last_ckpt : float;
  scratch : string;
  out_ch : out_channel option;
  conns : (int, conn) Hashtbl.t;
  mutable clients_total : int;
  queue_gauge : Obs.Gauge.t;
  running_gauge : Obs.Gauge.t;
  mutable restore : unit -> unit;
}

(* Deterministic jitter: a SplitMix64-style scramble of (id, attempt),
   reduced mod base.  Same schedule on every run — a retry storm never
   synchronizes, and a reproduction run backs off exactly like the
   original. *)
let backoff_delay_ms ~base ~attempt ~job_id =
  if base <= 0 then 0
  else
    let z =
      Int64.mul
        (Int64.add
           (Int64.mul (Int64.of_int job_id) 0x9E3779B97F4A7C15L)
           (Int64.of_int attempt))
        0xBF58476D1CE4E5B9L
    in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    let jitter = Int64.to_int (Int64.rem (Int64.logand z Int64.max_int) (Int64.of_int base)) in
    (base * (1 lsl min (attempt - 1) 16)) + jitter

(* SIGTERM and SIGINT run [f]; returns the restorer.  The supervisor
   drains on them, a worker stops at its next safe point. *)
let trap f =
  let old =
    List.map
      (fun s -> (s, Sys.signal s (Sys.Signal_handle (fun _ -> f ()))))
      [ Sys.sigterm; Sys.sigint ]
  in
  fun () -> List.iter (fun (s, h) -> Sys.set_signal s h) old

(* --- snapshots ---------------------------------------------------------------- *)

let save_snapshot ~kind ~meta path v =
  Snapshot.write_file path
    (Snapshot.frame ~kind ~meta ~payload:(Marshal.to_string v []))

let load_snapshot ~kind path =
  match Snapshot.load path with
  | Error (e, _) -> Error (Printf.sprintf "%s: %s" path (Snapshot.error_string e))
  | Ok { Snapshot.container = c; recovered } -> (
      if not (String.equal c.Snapshot.kind kind) then
        Error
          (Printf.sprintf "%s holds a %S snapshot, expected %S" path
             c.Snapshot.kind kind)
      else
        match Marshal.from_string c.Snapshot.payload 0 with
        | v -> Ok (v, recovered)
        | exception (Failure _ | Invalid_argument _) ->
            Error (path ^ ": checkpoint payload does not unmarshal"))

(* --- sockets ------------------------------------------------------------------- *)

let bind path =
  (* A leftover socket file from a crashed process must not block a
     restart, but an actively served one must: probe by connecting. *)
  let stale =
    match Unix.stat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> (
        let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () ->
            Unix.close probe;
            Error (path ^ ": a daemon is already serving this socket")
        | exception Unix.Unix_error _ ->
            Unix.close probe;
            (try Unix.unlink path with Unix.Unix_error _ -> ());
            Ok ())
    | _ -> Error (path ^ " exists and is not a socket")
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ()
  in
  Result.bind stale (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 64;
        Unix.set_nonblock fd
      with
      | () -> Ok fd
      | exception Unix.Unix_error (e, _, _) ->
          Unix.close fd;
          Error (Printf.sprintf "cannot bind %s: %s" path (Unix.error_message e)))

(* --- construction --------------------------------------------------------------- *)

let create cfg =
  let scratch =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "weakord-%s-%d" cfg.noun (Unix.getpid ()))
  in
  (try Unix.mkdir scratch 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* Append mode: an interrupted run's stream plus its resume's
     concatenate into the full result set. *)
  let out_ch =
    match cfg.out with
    | Stdout -> Some Stdlib.stdout
    | Append p -> Some (open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 p)
    | Discard -> None
  in
  let t =
    {
      cfg;
      t0 = Unix.gettimeofday ();
      queues = Hashtbl.create 16;
      rotation = [];
      delayed = [];
      running = [];
      draining = false;
      announced = false;
      spawns = 0;
      last_ckpt = 0.;
      scratch;
      out_ch;
      conns = Hashtbl.create 16;
      clients_total = 0;
      queue_gauge = Obs.Gauge.create ();
      running_gauge = Obs.Gauge.create ();
      restore = ignore;
    }
  in
  let restore_stop = trap (fun () -> t.draining <- true) in
  (* With sockets, EPIPE from a vanished client must be an error code on
     the write, not a process-killing signal. *)
  let old_pipe = Option.map (fun _ -> Sys.signal Sys.sigpipe Sys.Signal_ignore) cfg.listen in
  t.restore <-
    (fun () ->
      restore_stop ();
      Option.iter (Sys.set_signal Sys.sigpipe) old_pipe);
  t

(* --- the queue ------------------------------------------------------------------- *)

(* Queues may still hold withdrawn units, which [pop] skips. *)
let queue_depth t =
  Hashtbl.fold (fun _ q n -> n + Queue.length q) t.queues (List.length t.delayed)

let running_count t = List.length t.running

let pending t =
  List.concat_map
    (fun o -> List.filter (fun w -> w.state = Waiting) (List.of_seq (Queue.to_seq (Hashtbl.find t.queues o))))
    t.rotation
  @ t.delayed
  @ List.map (fun r -> r.r_work) t.running

let pending_count t = List.length (pending t)

let enqueue t w =
  let q =
    match Hashtbl.find_opt t.queues w.owner with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace t.queues w.owner q;
        t.rotation <- t.rotation @ [ w.owner ];
        q
  in
  w.state <- Waiting;
  Queue.add w q;
  Obs.Gauge.set t.queue_gauge (queue_depth t)

(* Round-robin: the serving owner rotates to the back; every other owner
   keeps its place even when its queue is momentarily empty — a quiet
   client must not fall out of the rotation.  A connection's queue
   (owner >= 0) retires once the connection closed and the queue is
   drained; withdrawn units are skipped. *)
let pop t =
  let rec go skipped = function
    | [] -> None
    | owner :: rest -> (
        match Queue.take_opt (Hashtbl.find t.queues owner) with
        | None ->
            if owner >= 0 && not (Hashtbl.mem t.conns owner) then begin
              Hashtbl.remove t.queues owner;
              t.rotation <- List.filter (fun o -> o <> owner) t.rotation;
              go skipped rest
            end
            else go (owner :: skipped) rest
        | Some w when w.state = Waiting ->
            t.rotation <- List.rev_append skipped (rest @ [ owner ]);
            Some w
        | Some _ -> go skipped (owner :: rest))
  in
  go [] t.rotation

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

let signal_name = function
  | s when s = Sys.sigkill -> "SIGKILL"
  | s when s = Sys.sigterm -> "SIGTERM"
  | s when s = Sys.sigsegv -> "SIGSEGV"
  | s when s = Sys.sigabrt -> "SIGABRT"
  | s -> Printf.sprintf "signal %d" s

(* The last 2 KiB of a failed attempt's stderr, for its quarantine
   record. *)
let stderr_tail path =
  let s = read_file path in
  let n = String.length s in
  String.trim (if n <= 2048 then s else String.sub s (n - 2048) 2048)

let delay t w =
  let d = backoff_delay_ms ~base:t.cfg.backoff_ms ~attempt:w.attempts ~job_id:w.id in
  w.state <- Backoff;
  w.eligible_at <- Unix.gettimeofday () +. (float_of_int d /. 1000.);
  t.delayed <- t.delayed @ [ w ];
  d

let retry t w reason =
  w.attempts <- w.attempts + 1;
  w.reason <- reason;
  w.stderr_tail <- stderr_tail w.files.stderr;
  w.attempts < t.cfg.retries
  && begin
       let d = delay t w in
       if t.cfg.verbose then
         t.cfg.log
           (Printf.sprintf "retrying %s in %d ms (attempt %d/%d: %s)"
              (t.cfg.label w.payload) d (w.attempts + 1) t.cfg.retries reason);
       true
     end

let finish t w lines =
  w.state <- Finished;
  Option.iter
    (fun ch ->
      List.iter (fun l -> output_string ch (l ^ "\n")) lines;
      flush ch)
    t.out_ch

let terminate r =
  if not r.r_term_sent then begin
    r.r_term_sent <- true;
    try Unix.kill r.r_pid Sys.sigterm with Unix.Unix_error _ -> ()
  end

let withdraw t w =
  match w.state with
  | Waiting -> w.state <- Finished
  | Backoff ->
      t.delayed <- List.filter (fun d -> d != w) t.delayed;
      w.state <- Finished
  | Running -> List.iter (fun r -> if r.r_work == w then terminate r) t.running
  | Finished -> ()

let cfg t = t.cfg
let draining t = t.draining
let uptime t = Unix.gettimeofday () -. t.t0
let queue_gauge t = t.queue_gauge
let running_gauge t = t.running_gauge
let clients_total t = t.clients_total
let conns t = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
let conn t id = Hashtbl.find_opt t.conns id

(* --- attempts ---------------------------------------------------------------------- *)

let spawn t w child =
  t.spawns <- t.spawns + 1;
  let path ext = Filename.concat t.scratch (Printf.sprintf "a%d.%s" t.spawns ext) in
  let files = { result = path "result"; stderr = path "stderr"; heartbeat = path "hb" } in
  (try Sys.remove files.result with Sys_error _ -> ());
  (try Sys.remove files.heartbeat with Sys_error _ -> ());
  let pid =
    Runner.fork_worker (fun () ->
        let cancelled = ref false in
        ignore (trap (fun () -> cancelled := true) : unit -> unit);
        Runner.redirect_stderr files.stderr;
        child files (fun () -> !cancelled))
  in
  if t.cfg.verbose then
    t.cfg.log
      (Printf.sprintf "%s %d started %s (attempt %d/%d)" t.cfg.noun pid
         (t.cfg.label w.payload) (w.attempts + 1) t.cfg.retries);
  w.state <- Running;
  w.files <- files;
  w.beat <- "";
  let now = Unix.gettimeofday () in
  t.running <-
    {
      r_work = w;
      r_pid = pid;
      r_started = now;
      r_progress_at = now;
      r_killed = false;
      r_term_sent = false;
    }
    :: t.running

(* Progress is wall time since the start, or with heartbeats the time
   since the heartbeat's content last changed. *)
let watchdog t now =
  List.iter
    (fun r ->
      if not r.r_killed then begin
        (if t.cfg.heartbeat then
           let c = String.trim (read_file r.r_work.files.heartbeat) in
           if not (String.equal c r.r_work.beat) then begin
             r.r_work.beat <- c;
             r.r_progress_at <- now
           end);
        if now -. r.r_progress_at > t.cfg.timeout_s then begin
          r.r_killed <- true;
          try Unix.kill r.r_pid Sys.sigkill with Unix.Unix_error _ -> ()
        end
      end)
    t.running

(* The worker exit-status contract of runner.mli. *)
let classify t r = function
  | Unix.WEXITED 0 -> Exit_ok
  | Unix.WEXITED 9 -> Exit_parked
  | Unix.WEXITED n -> Exit_failed (Printf.sprintf "%s exited %d" t.cfg.noun n)
  | Unix.WSIGNALED _ when r.r_killed -> Exit_hung
  | Unix.WSIGNALED s ->
      Exit_failed (Printf.sprintf "%s killed by %s" t.cfg.noun (signal_name s))
  | Unix.WSTOPPED _ ->
      (* Not requested (no WUNTRACED); treat defensively. *)
      (try Unix.kill r.r_pid Sys.sigkill with Unix.Unix_error _ -> ());
      Exit_failed (t.cfg.noun ^ " stopped unexpectedly")

let reap t on_exit =
  let exited = ref [] in
  t.running <-
    List.filter
      (fun r ->
        match Unix.waitpid [ Unix.WNOHANG ] r.r_pid with
        | 0, _ -> true
        | _, status ->
            exited := (r, status) :: !exited;
            false
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> true)
      t.running;
  List.iter
    (fun (r, status) ->
      let w = r.r_work in
      let ms = (Unix.gettimeofday () -. r.r_started) *. 1000. in
      w.state <- Waiting;
      on_exit w (classify t r status) ~ms;
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ w.files.result; w.files.stderr; w.files.heartbeat ])
    (List.rev !exited);
  !exited <> []

(* --- the wire-connection pump ---------------------------------------------------- *)

let send c payload = Buffer.add_string c.c_out (Wire.frame payload)

let close_conn t c =
  (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
  Hashtbl.remove t.conns c.c_id

let accept t lfd =
  let rec go () =
    match Unix.accept lfd with
    | fd, _ ->
        if t.draining || Hashtbl.length t.conns >= t.cfg.max_clients then (
          (* Refuse politely: one frame, then close. *)
          let msg =
            Wire.frame
              (Wire.err Wire.e_draining
                 (if t.draining then "server is draining" else "too many clients"))
          in
          (try ignore (Unix.write_substring fd msg 0 (String.length msg))
           with Unix.Unix_error _ -> ());
          try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          Unix.set_nonblock fd;
          let id = t.clients_total in
          t.clients_total <- id + 1;
          Hashtbl.replace t.conns id
            {
              c_id = id;
              c_fd = fd;
              c_dec = Wire.decoder ();
              c_out = Buffer.create 256;
              c_hello = false;
              c_closing = false;
              c_submitted = 0;
              c_completed = 0;
            };
          if t.cfg.verbose then t.cfg.log (Printf.sprintf "client %d connected" id)
        end;
        go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* The verbs every endpoint answers the same way; the rest go to the
   front end. *)
let answer t ~stats ~request c = function
  | Wire.Hello v ->
      if String.equal v Wire.greeting then begin
        c.c_hello <- true;
        send c
          (Wire.ok
             (Printf.sprintf "%s engine=%s" Wire.greeting Verdict_cache.engine_version))
      end
      else
        send c
          (Wire.err Wire.e_hello
             (Printf.sprintf "unsupported version %S, this server speaks %s" v
                Wire.greeting))
  | _ when not c.c_hello -> send c (Wire.err Wire.e_hello "say HELLO first")
  | Wire.Stats -> send c (Wire.ok (stats ()))
  | Wire.Drain ->
      t.draining <- true;
      send c
        (Wire.ok
           (Printf.sprintf "draining pending=%d running=%d" (queue_depth t)
              (running_count t)))
  | Wire.Ping -> send c (Wire.ok "pong")
  | Wire.Bye ->
      send c (Wire.ok "bye");
      c.c_closing <- true
  | req -> request c req

let read_conn t ~stats ~request c =
  let buf = Bytes.create 4096 in
  match Unix.read c.c_fd buf 0 4096 with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn t c
  | 0 -> close_conn t c
  | n ->
      Wire.feed c.c_dec (Bytes.sub_string buf 0 n);
      let rec pump () =
        match Wire.next c.c_dec with
        | Ok None -> ()
        | Ok (Some payload) ->
            (match Wire.parse_request payload with
            | Ok req -> answer t ~stats ~request c req
            | Error (code, msg) -> send c (Wire.err code msg));
            if not c.c_closing then pump ()
        | Error e ->
            (* Framing violations latch: answer once, then hang up. *)
            send c (Wire.err Wire.e_bad ("framing: " ^ e));
            c.c_closing <- true
      in
      pump ()

let write_conn t c =
  let s = Buffer.contents c.c_out in
  if String.length s > 0 then (
    match Unix.write_substring c.c_fd s 0 (String.length s) with
    | n ->
        Buffer.clear c.c_out;
        if n < String.length s then
          Buffer.add_substring c.c_out s n (String.length s - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn t c);
  if c.c_closing && Buffer.length c.c_out = 0 && Hashtbl.mem t.conns c.c_id then
    close_conn t c

(* The one idle wait: with sockets the loop sleeps inside select, so it
   stays responsive to clients; without, it just sleeps. *)
let wait t ~stats ~request timeout =
  match t.cfg.listen with
  | None -> if timeout > 0. then ( try Unix.sleepf timeout with Unix.Unix_error _ -> ())
  | Some (lfd, _) -> (
      let cs = conns t in
      let wfds =
        List.filter_map
          (fun c ->
            if Buffer.length c.c_out > 0 || c.c_closing then Some c.c_fd else None)
          cs
      in
      match Unix.select (lfd :: List.map (fun c -> c.c_fd) cs) wfds [] timeout with
      | rs, _, _ ->
          if List.mem lfd rs then accept t lfd;
          List.iter
            (fun c ->
              if Hashtbl.mem t.conns c.c_id && List.mem c.c_fd rs then
                read_conn t ~stats ~request c)
            cs;
          List.iter
            (fun c ->
              if Hashtbl.mem t.conns c.c_id then write_conn t c)
            (conns t)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())

(* --- the loop ------------------------------------------------------------------------ *)

let checkpoint t save ~force =
  match save with
  | None -> ()
  | Some save ->
      let now = Unix.gettimeofday () in
      if force || now -. t.last_ckpt > 0.25 then begin
        t.last_ckpt <- now;
        save ()
      end

let close t =
  t.restore ();
  Option.iter (if t.cfg.out = Stdout then flush else close_out) t.out_ch;
  Hashtbl.iter (fun _ c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ()) t.conns;
  (match t.cfg.listen with
  | Some (fd, path) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ())
  | None -> ());
  (* Best-effort: captured stderr of failed attempts already lives in
     their records. *)
  match Sys.readdir t.scratch with
  | files ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat t.scratch f) with Sys_error _ -> ())
        files;
      (try Unix.rmdir t.scratch with Unix.Unix_error _ -> ())
  | exception Sys_error _ -> ()

let refuse c _ =
  send c (Wire.err Wire.e_unknown "this endpoint serves STATS, PING, DRAIN and BYE")

let run t ?(should_drain = fun () -> None) ?save ?(stats = fun () -> "{}")
    ?(request = refuse) ?(stop = ignore) ~start ~on_exit () =
  let busy () = t.running <> [] || ((not t.draining) && queue_depth t > 0) in
  let loop () =
    while busy () || (t.cfg.resident && not t.draining) do
      let now = Unix.gettimeofday () in
      (if not t.draining then
         match should_drain () with
         | Some msg ->
             t.draining <- true;
             t.cfg.log msg
         | None -> ());
      (* Drain: forward SIGTERM once to every in-flight worker.  The
         watchdog stays armed — a wedged worker ignores SIGTERM. *)
      if t.draining then begin
        if not t.announced then begin
          t.announced <- true;
          t.cfg.log
            (Printf.sprintf "draining: %d %s(s) in flight, %d %s(s) queued"
               (running_count t) t.cfg.noun (queue_depth t) t.cfg.item)
        end;
        List.iter terminate t.running
      end;
      watchdog t now;
      let reaped = reap t on_exit in
      let due, later = List.partition (fun w -> w.eligible_at <= now) t.delayed in
      t.delayed <- later;
      List.iter (enqueue t) due;
      let dispatched = ref false in
      let rec dispatch () =
        if (not t.draining) && running_count t < t.cfg.slots then
          match pop t with
          | None -> ()
          | Some w ->
              dispatched := true;
              start w;
              dispatch ()
      in
      dispatch ();
      Obs.Gauge.set t.running_gauge (running_count t);
      Obs.Gauge.set t.queue_gauge (queue_depth t);
      checkpoint t save ~force:false;
      wait t ~stats ~request (if reaped || !dispatched then 0. else 0.01)
    done;
    stop ();
    (* Best-effort flush of the last replies before the sockets close. *)
    List.iter (write_conn t) (conns t);
    checkpoint t save ~force:true
  in
  match loop () with
  | () -> close t
  | exception e ->
      (try checkpoint t save ~force:true with _ -> ());
      close t;
      raise e
