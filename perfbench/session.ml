(* One out-of-process daemon session: start `spamlab serve` on a
   pristine state copy, replay the schedule over its unix socket in a
   closed loop (one connection open at a time), check every answer
   against the in-process replay, and measure from outside the daemon
   only — client clocks, /proc/<pid>/{stat,status,io} and STATS. *)

module Protocol = Spamlab_serve.Protocol
module Store = Spamlab_store.Store
module Clock = Spamlab_obs.Clock

let now () = Clock.now_ns ()
let ns_since t0 = Int64.to_float (Int64.sub (now ()) t0)

(* ------------------------------------------------------------------ *)
(* /proc                                                               *)

let read_proc path = try Some (State.read_file path) with Sys_error _ -> None

(* utime + stime in clock ticks (fields 14 and 15; field 2 may hold
   spaces, so count from the closing parenthesis). *)
let cpu_ticks pid =
  match read_proc (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> failwith "daemon /proc stat unreadable"
  | Some s ->
      let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
      let f = Array.of_list (String.split_on_char ' ' rest) in
      int_of_string f.(11) + int_of_string f.(12)

let proc_field path key =
  match read_proc path with
  | None -> failwith (path ^ " unreadable")
  | Some s ->
      let line =
        List.find
          (fun l -> String.starts_with ~prefix:(key ^ ":") l)
          (String.split_on_char '\n' s)
      in
      let v = String.trim (String.sub line (String.length key + 1) (String.length line - String.length key - 1)) in
      int_of_string (List.hd (String.split_on_char ' ' v))

(* On-CPU nanoseconds of the daemon's (single) thread. *)
let cpu_ns pid =
  match read_proc (Printf.sprintf "/proc/%d/schedstat" pid) with
  | None -> failwith "daemon /proc schedstat unreadable"
  | Some s -> int_of_string (List.hd (String.split_on_char ' ' s))

let segments = 16

let wchar pid = proc_field (Printf.sprintf "/proc/%d/io" pid) "wchar"
let vm_hwm_kb pid = proc_field (Printf.sprintf "/proc/%d/status" pid) "VmHWM"

(* ------------------------------------------------------------------ *)
(* Daemon process                                                      *)

type daemon = { pid : int; sock : string }

(* The daemon not yet stopped, killed on any early exit so a failed
   session never leaves a process behind. *)
let live = ref None

let () =
  at_exit (fun () ->
      Option.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~spamlab ~work ~store =
  let sock = Filename.concat work "s.sock" in
  let args =
    [ spamlab; "serve"; "--db"; Filename.concat work "shared.db"; "--socket"; sock; "--jobs"; "1" ]
    @ if store then [ "--store-dir"; Filename.concat work "store" ] else []
  in
  let log =
    Unix.openfile (Filename.concat work "daemon.log")
      [ O_WRONLY; O_CREAT; O_APPEND; O_CLOEXEC ] 0o644
  in
  let devnull = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let pid = Unix.create_process spamlab (Array.of_list args) devnull log log in
  Unix.close log;
  Unix.close devnull;
  let d = { pid; sock } in
  live := Some d;
  d

let alive d =
  match Unix.waitpid [ WNOHANG ] d.pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (ECHILD, _, _) -> false

let connect sock =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  match Unix.connect fd (ADDR_UNIX sock) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

let roundtrip_on fd reader bytes =
  Spamlab_io.really_write_string fd bytes 0 (String.length bytes);
  Protocol.recv_response reader

(* Spawn-to-first-PING: the restart-to-ready cost. *)
let start ~spamlab ~work ~store ~timeout_s =
  let t0 = now () in
  let d = spawn ~spamlab ~work ~store in
  let ping = Protocol.render_request { verb = Ping; body = ""; user = None } in
  let rec wait () =
    if ns_since t0 > timeout_s *. 1e9 then failwith "daemon not ready in time";
    match connect d.sock with
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) ->
        if not (alive d) then failwith "daemon exited during start-up";
        Unix.sleepf 0.0005;
        wait ()
    | fd ->
        let r = roundtrip_on fd (Spamlab_io.reader fd) ping in
        Unix.close fd;
        (match r with
        | `Response (Protocol.Ok "pong\n") -> ()
        | _ -> failwith "daemon answered PING wrongly")
  in
  wait ();
  (d, ns_since t0 /. 1e9)

(* SIGTERM, then wait for a clean exit. *)
let stop d =
  live := None;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = now () in
  let rec wait () =
    match Unix.waitpid [ WNOHANG ] d.pid with
    | 0, _ ->
        if ns_since t0 > 20e9 then begin
          Unix.kill d.pid Sys.sigkill;
          ignore (Unix.waitpid [] d.pid);
          failwith "daemon ignored SIGTERM"
        end;
        Unix.sleepf 0.002;
        wait ()
    | _, WEXITED 0 -> ()
    | _, _ -> failwith "daemon exited uncleanly"
  in
  wait ()

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

type tally = { mutable ok : int; mutable err : int; mutable busy : int; mutable transport : int }

let tally () = { ok = 0; err = 0; busy = 0; transport = 0 }

type result = {
  setup_s : float;  (* spawn to first PING answered *)
  wall_s : float;  (* the timed window *)
  classify_msgs : int;  (* timed window *)
  train_msgs : int;
  cpu_ticks : int;
  rss_kb : int;
  wchar : int;
  resp_bytes : int;  (* response bytes read in the timed window *)
  rtt_us : float array;  (* per timed request, schedule order *)
  kinds : string;  (* 'C' or 'T' per timed request *)
  seg_wall_ns : float array;
  seg_cpu_ns : int array;
  connect_us : float array;
  rtt_ns : float;  (* summed over timed requests *)
  tallies : (string * tally) list;
  errors : string list;
}

let parse_stats payload =
  String.split_on_char '\n' payload
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' l with
         | [ k; v ] -> Option.map (fun v -> (k, v)) (int_of_string_opt v)
         | _ -> None)

let run ~spamlab ~work ~store ~wire ~(index : State.entry array) ~expected
    ~expected_stats ~after =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let d, setup_s = start ~spamlab ~work ~store ~timeout_s:60.0 in
  let tallies = [ ("CLASSIFY", tally ()); ("TRAIN", tally ()) ] in
  let connect_us = ref [] in
  let conn = ref None in
  let close_conn () =
    Option.iter (fun (fd, _) -> Unix.close fd) !conn;
    conn := None
  in
  let conns = ref 0 in
  let open_conn () =
    let fd = connect d.sock in
    incr conns;
    let c = (fd, Spamlab_io.reader fd) in
    conn := Some c;
    c
  in
  (* The timed window is cut into [segments] runs of equal request
     count; each gets its wall and daemon CPU time, so a run of several
     sessions can take per-segment minima (see run.py). *)
  let n_timed = Array.fold_left (fun n (e : State.entry) -> if e.timed then n + 1 else n) 0 index in
  let n_seg = max 1 (min segments n_timed) in
  let seg_wall = Array.make n_seg 0.0 and seg_cpu = Array.make n_seg 0 in
  let seg_of k = k * n_seg / n_timed in
  let window = ref None and seg_start = ref (0L, 0) in
  let resp_bytes = ref 0 and rtt = ref 0.0 in
  let c_msgs = ref 0 and t_msgs = ref 0 and timed_reqs = ref 0 in
  let rtt_us = Array.make n_timed 0.0 and kinds = Bytes.make n_timed 'C' in
  let snapshot () = (now (), cpu_ticks d.pid, wchar d.pid) in
  let close_segment k =
    let t, c = !seg_start in
    let t' = now () and c' = cpu_ns d.pid in
    seg_wall.(k) <- Int64.to_float (Int64.sub t' t);
    seg_cpu.(k) <- c' - c;
    seg_start := (t', c')
  in
  Array.iteri
    (fun i (e : State.entry) ->
      if e.timed && !window = None then begin
        window := Some (snapshot ());
        seg_start := (now (), cpu_ns d.pid)
      end;
      let bytes = String.sub wire e.off e.len in
      let verb = match e.kind with State.Classify -> "CLASSIFY" | Train -> "TRAIN" in
      let t = List.assoc verb tallies in
      let t0 = now () in
      let outcome =
        match
          let fd, reader =
            match !conn with
            | Some c when not e.fresh_conn -> c
            | _ ->
                close_conn ();
                let c = open_conn () in
                connect_us := (ns_since t0 /. 1e3) :: !connect_us;
                c
          in
          roundtrip_on fd reader bytes
        with
        | `Response r -> Ok r
        | `Eof -> Error "connection closed"
        | `Error m -> Error m
        | exception (Unix.Unix_error _ | End_of_file | Sys_error _ as ex) ->
            Error (Printexc.to_string ex)
      in
      let dt = ns_since t0 in
      if e.fresh_conn then close_conn ();
      (match outcome with
      | Ok (Protocol.Ok _ as r) ->
          let rendered = Protocol.render_response r in
          if rendered = expected.(i) then t.ok <- t.ok + 1
          else begin
            t.err <- t.err + 1;
            fail "request %d (%s): answer differs from the in-process replay" i verb
          end;
          if e.timed then resp_bytes := !resp_bytes + String.length rendered
      | Ok (Protocol.Err m) ->
          t.err <- t.err + 1;
          fail "request %d (%s): ERR %s" i verb m
      | Ok Protocol.Busy ->
          t.busy <- t.busy + 1;
          fail "request %d (%s): BUSY" i verb
      | Error m ->
          t.transport <- t.transport + 1;
          close_conn ();
          fail "request %d (%s): transport failure: %s" i verb m);
      if e.timed then begin
        let k = !timed_reqs in
        incr timed_reqs;
        rtt := !rtt +. dt;
        rtt_us.(k) <- dt /. 1e3;
        (match e.kind with
        | State.Classify -> c_msgs := !c_msgs + e.msgs
        | State.Train ->
            Bytes.set kinds k 'T';
            t_msgs := !t_msgs + e.msgs);
        if k + 1 = n_timed || seg_of (k + 1) <> seg_of k then close_segment (seg_of k)
      end;
      after i e)
    index;
  close_conn ();
  let t_end, cpu_end, wchar_end = snapshot () in
  let t_start, cpu_start, wchar_start = Option.get !window in
  let rss_kb = vm_hwm_kb d.pid in
  (* Final counters, on a connection of their own. *)
  let stats =
    let fd = connect d.sock in
    incr conns;
    let r =
      roundtrip_on fd (Spamlab_io.reader fd)
        (Protocol.render_request { verb = Stats; body = ""; user = None })
    in
    Unix.close fd;
    match r with
    | `Response (Protocol.Ok p) -> parse_stats p
    | _ ->
        fail "STATS failed";
        []
  in
  let expect k v =
    match List.assoc_opt k stats with
    | Some got when got = v -> ()
    | Some got -> fail "STATS %s = %d, the schedule implies %d" k got v
    | None -> fail "STATS lacks %s" k
  in
  List.iter (fun (k, v) -> expect k v) expected_stats;
  expect "requests.ping" 1;
  expect "requests.stats" 1;
  expect "connections" (!conns + 1);
  expect "protocol.errors" 0;
  expect "io.errors" 0;
  stop d;
  if store then begin
    match Store.verify_dir (Filename.concat work "store") with
    | Error e -> fail "store verify: %s" e
    | Ok r ->
        List.iter
          (fun (s : Store.shard_report) ->
            (match s.segment with
            | `Ok | `Missing -> ()
            | `Corrupt m -> fail "store shard %d segment: %s" s.shard m);
            match s.journal with
            | `Ok _ | `Missing -> ()
            | `Torn _ -> fail "store shard %d journal torn after a clean stop" s.shard
            | `Stale -> fail "store shard %d journal stale after a clean stop" s.shard
            | `Corrupt m -> fail "store shard %d journal: %s" s.shard m)
          r.shard_reports;
        (match r.prior_ok with
        | Ok _ -> ()
        | Error e -> fail "store prior: %s" e)
  end;
  {
    setup_s;
    wall_s = Int64.to_float (Int64.sub t_end t_start) /. 1e9;
    classify_msgs = !c_msgs;
    train_msgs = !t_msgs;
    cpu_ticks = cpu_end - cpu_start;
    rss_kb;
    wchar = wchar_end - wchar_start;
    resp_bytes = !resp_bytes;
    rtt_us;
    kinds = Bytes.to_string kinds;
    seg_wall_ns = seg_wall;
    seg_cpu_ns = seg_cpu;
    connect_us = Array.of_list (List.rev !connect_us);
    rtt_ns = !rtt;
    tallies;
    errors = List.rev !errors;
  }
