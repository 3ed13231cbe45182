(* In-process replay of a schedule.  Two engines walk the same
   requests:

   - [mirror] re-executes the daemon's request path through the same
     public functions the daemon calls (Protocol, Ingest, Mbox,
     Classify, Filter, Token_db, Intern, Prob_cache, Store), with a
     span around each call when tracing.  Its responses are the
     expected answers every daemon session is checked against, and its
     span self times are the per-layer costs.
   - [handle] drives a real in-process [Daemon.t] through
     [Daemon.handle_request] and times each call: the total the
     mirror's layers must add up to. *)

module Sb = Spamlab_spambayes
module Filter = Sb.Filter
module Ingest = Sb.Ingest
module Classify = Sb.Classify
module Token_db = Sb.Token_db
module Intern = Sb.Intern
module Prob_cache = Sb.Prob_cache
module Label = Sb.Label
module Options = Sb.Options
module Tokenizer = Spamlab_tokenizer.Tokenizer
module Mbox = Spamlab_email.Mbox
module Protocol = Spamlab_serve.Protocol
module Daemon = Spamlab_serve.Daemon
module Store = Spamlab_store.Store
module Pool = Spamlab_parallel.Pool
module Obs = Spamlab_obs.Obs
module Clock = Spamlab_obs.Clock

let now () = Clock.now_ns ()
let ns_since t0 = Int64.to_float (Int64.sub (now ()) t0)

(* ------------------------------------------------------------------ *)
(* Spans: a stack of open spans; closing one adds its duration minus
   its children's to its layer's self time. *)

type layer =
  | Parse
  | Daemon_glue
  | Chunk
  | Mbox_parse
  | Tokenize
  | Score
  | Train
  | Save
  | Copy
  | Freeze
  | Cache
  | Store_user
  | Store_journal
  | Store_commit
  | Render

let n_layers = 15

let layer_index = function
  | Parse -> 0
  | Daemon_glue -> 1
  | Chunk -> 2
  | Mbox_parse -> 3
  | Tokenize -> 4
  | Score -> 5
  | Train -> 6
  | Save -> 7
  | Copy -> 8
  | Freeze -> 9
  | Cache -> 10
  | Store_user -> 11
  | Store_journal -> 12
  | Store_commit -> 13
  | Render -> 14

type tracer = {
  tracing : bool;
  self_ns : float array;  (* per layer, timed window only *)
  calls : int array;
  mutable counting : bool;  (* inside the timed window *)
  mutable depth : int;
  start : int64 array;
  child : float array;
}

let tracer tracing =
  {
    tracing;
    self_ns = Array.make n_layers 0.0;
    calls = Array.make n_layers 0;
    counting = false;
    depth = 0;
    start = Array.make 16 0L;
    child = Array.make 16 0.0;
  }

(* The last closed span's self time, so callers can split a layer by
   outcome (a missing vs a hit overlay). *)
let last_self = ref 0.0

let span tr layer f =
  if not tr.tracing then f ()
  else begin
    let d = tr.depth in
    tr.depth <- d + 1;
    tr.child.(d) <- 0.0;
    tr.start.(d) <- now ();
    let close () =
      let dur = ns_since tr.start.(d) in
      tr.depth <- d;
      let self = dur -. tr.child.(d) in
      last_self := self;
      if d > 0 then tr.child.(d - 1) <- tr.child.(d - 1) +. dur;
      if tr.counting then begin
        let i = layer_index layer in
        tr.self_ns.(i) <- tr.self_ns.(i) +. self;
        tr.calls.(i) <- tr.calls.(i) + 1
      end
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

(* ------------------------------------------------------------------ *)
(* The mirror: Daemon.create / exec / publish, call for call. *)

type mirror = {
  tr : tracer;
  options : Options.t;
  tokenizer : Tokenizer.t;
  db_path : string;
  pool : Pool.t;
  delta : Filter.t;
  store : Store.t option;
  mutable baseline : Token_db.t;
  mutable cache : Prob_cache.t;
  mutable pending : int;
  mutable seq : int;
  (* Counters the daemon's STATS must reproduce. *)
  requests : (string, int) Hashtbl.t;
  mutable classify_msgs : int;
  mutable train_msgs : int;
  verdicts : int array;  (* ham, unsure, spam *)
  (* Per-layer side counts, timed window only. *)
  mutable tokens : int;
  mutable msgs_tokenized : int;
  mutable msgs_scored : int;
  mutable publish_bytes : int;
  mutable materialize_ns : float;
  mutable materializations : int;
}

(* The daemon's default cadence, which the benchmark's daemons run. *)
let publish_every = (Daemon.default_config ~db_path:"" ()).publish_every

let open_mirror ~tracing ~db_path ~store_dir =
  let options = Options.default and tokenizer = Tokenizer.spambayes in
  match Filter.load_file ~options ~tokenizer db_path with
  | Error e -> failwith ("mirror db: " ^ e)
  | Ok delta ->
      let store =
        Option.map
          (fun dir ->
            match
              Store.open_store ~options
                ~prior:(Token_db.copy (Filter.db delta))
                (State.store_config dir)
            with
            | Ok st -> st
            | Error e -> failwith ("mirror store: " ^ e))
          store_dir
      in
      Intern.freeze ();
      let baseline = Token_db.copy (Filter.db delta) in
      {
        tr = tracer tracing;
        options;
        tokenizer;
        db_path;
        pool = Pool.create ~jobs:1;
        delta;
        store;
        baseline;
        cache = Prob_cache.create ~shared:true options baseline;
        pending = 0;
        seq = 0;
        requests = Hashtbl.create 8;
        classify_msgs = 0;
        train_msgs = 0;
        verdicts = Array.make 3 0;
        tokens = 0;
        msgs_tokenized = 0;
        msgs_scored = 0;
        publish_bytes = 0;
        materialize_ns = 0.0;
        materializations = 0;
      }

let close_mirror m =
  Option.iter Store.close m.store;
  Pool.shutdown m.pool

let publish m =
  let tr = m.tr in
  span tr Store_commit (fun () -> Option.iter Store.commit m.store);
  span tr Save (fun () -> Filter.save_file m.delta m.db_path);
  if tr.counting then
    m.publish_bytes <- m.publish_bytes + (Unix.stat m.db_path).st_size;
  m.baseline <- span tr Copy (fun () -> Token_db.copy (Filter.db m.delta));
  m.seq <- m.seq + 1;
  m.pending <- 0;
  span tr Freeze Intern.freeze;
  m.cache <-
    span tr Cache (fun () ->
        Prob_cache.create ~shared:true m.options m.baseline)

let render_classify m results =
  let b = Buffer.create 256 in
  Array.iteri
    (fun i r ->
      match r with
      | None -> Buffer.add_string b (Printf.sprintf "%d malformed\n" i)
      | Some (r : Classify.result) ->
          m.classify_msgs <- m.classify_msgs + 1;
          let v =
            match r.verdict with
            | Label.Ham_v -> 0
            | Label.Unsure_v -> 1
            | Label.Spam_v -> 2
          in
          m.verdicts.(v) <- m.verdicts.(v) + 1;
          Buffer.add_string b
            (Printf.sprintf "%d %s %.6f\n" i
               (Label.verdict_to_string r.verdict)
               r.indicator))
    results;
  Buffer.contents b

let classify_engine m engine body =
  let tr = m.tr in
  let chunks = span tr Chunk (fun () -> Ingest.raw_message_chunks body) in
  let results =
    Pool.map_array m.pool
      (fun (off, len) ->
        span tr Tokenize (fun () ->
            Ingest.with_unique_ids_raw m.tokenizer body ~off ~len
              (fun ids n raw ->
                if tr.counting then begin
                  m.tokens <- m.tokens + raw;
                  m.msgs_tokenized <- m.msgs_tokenized + 1;
                  m.msgs_scored <- m.msgs_scored + 1
                end;
                span tr Score (fun () -> Classify.score_engine_sub engine ids n))))
      chunks
  in
  Protocol.Ok (render_classify m results)

let train_ack m n dropped =
  m.pending <- m.pending + n;
  if m.pending >= publish_every then publish m;
  Protocol.Ok
    (Printf.sprintf "trained=%d malformed=%d pending=%d seq=%d\n" n dropped
       m.pending m.seq)

let exec m (req : Protocol.request) =
  let tr = m.tr in
  let verb = Protocol.verb_name req.verb in
  Hashtbl.replace m.requests verb
    (1 + Option.value ~default:0 (Hashtbl.find_opt m.requests verb));
  match (req.verb, req.user, m.store) with
  | Protocol.Classify, None, _ ->
      classify_engine m (Classify.engine_cached m.cache) req.body
  | Protocol.Classify, Some user, Some st ->
      let misses = (Store.stats st).misses in
      let r =
        span tr Store_user (fun () ->
            Store.with_user_engine st user (fun engine ->
                span tr Daemon_glue (fun () -> classify_engine m engine req.body)))
      in
      if tr.counting && (Store.stats st).misses > misses then begin
        m.materialize_ns <- m.materialize_ns +. !last_self;
        m.materializations <- m.materializations + 1
      end;
      r
  | Protocol.Train cls, None, _ ->
      let msgs, dropped =
        span tr Mbox_parse (fun () -> Mbox.parse_lenient req.body)
      in
      List.iter
        (fun msg -> span tr Train (fun () -> Filter.train m.delta cls msg))
        msgs;
      let n = List.length msgs in
      m.train_msgs <- m.train_msgs + n;
      train_ack m n dropped
  | Protocol.Train cls, Some user, Some st ->
      let msgs, dropped =
        span tr Mbox_parse (fun () -> Mbox.parse_lenient req.body)
      in
      List.iter
        (fun msg ->
          let features =
            span tr Tokenize (fun () -> Filter.features m.delta msg)
          in
          if tr.counting then begin
            m.tokens <- m.tokens + Array.length features;
            m.msgs_tokenized <- m.msgs_tokenized + 1
          end;
          span tr Store_journal (fun () -> Store.train st ~user cls features))
        msgs;
      let n = List.length msgs in
      m.train_msgs <- m.train_msgs + n;
      train_ack m n dropped
  | _ -> failwith ("schedule holds a request the mirror does not model: " ^ verb)

(* The STATS counters a daemon that served the same schedule must
   report (plus the session's own PING and STATS). *)
let expected_stats m =
  let req v = Option.value ~default:0 (Hashtbl.find_opt m.requests v) in
  [
    ("classify.messages", m.classify_msgs);
    ("publish.seq", m.seq);
    ("requests.classify", req "CLASSIFY");
    ("requests.train", req "TRAIN");
    ("train.messages", m.train_msgs);
    ("verdicts.ham", m.verdicts.(0));
    ("verdicts.spam", m.verdicts.(2));
    ("verdicts.unsure", m.verdicts.(1));
  ]
  @
  match m.store with
  | None -> []
  | Some st ->
      let s = Store.stats st in
      [
        ("store.compactions", s.compactions);
        ("store.evictions", s.evictions);
        ("store.journal_bytes", s.journal_bytes);
        ("store.journal_ops", s.journal_ops);
        ("store.overlay_hits", s.hits);
        ("store.overlay_misses", s.misses);
      ]

(* ------------------------------------------------------------------ *)
(* Walking a schedule                                                  *)

(* Each engine parses its own stream of the schedule's wire file through
   the daemon's framed reader, so parse cost is measured on the bytes
   the daemon receives. *)
type feed = Spamlab_io.reader

let open_feed wire_path =
  Spamlab_io.reader (Unix.openfile wire_path [ O_RDONLY; O_CLOEXEC ] 0)

let next feed () =
  match Protocol.recv_request feed with
  | `Request r -> r
  | `Eof | `Error _ -> failwith "schedule wire file is torn"

(* One request through the mirror: its rendered response. *)
let mirror_step m feed =
  let tr = m.tr in
  let req = span tr Parse (next feed) in
  let resp = span tr Daemon_glue (fun () -> exec m req) in
  span tr Render (fun () -> Protocol.render_response resp)

(* The untraced mirror over the whole schedule: the expected answers. *)
let expected_answers ~db_path ~store_dir ~wire_path index =
  let m = open_mirror ~tracing:false ~db_path ~store_dir in
  let feed = open_feed wire_path in
  let responses = Array.map (fun _ -> mirror_step m feed) index in
  let stats = expected_stats m in
  close_mirror m;
  (responses, stats)

(* ------------------------------------------------------------------ *)
(* The traced replay                                                   *)

(* Three in-process engines take each request in turn, right after the
   daemon answered it over the socket: the traced mirror, a real
   [Daemon.t] through [handle_request], and the untraced mirror.  Being
   adjacent in time, their costs compare despite host speed drifting
   over seconds.  The engine that goes first meets the request's bytes
   and intern entries in cold caches (and pays each token's first
   sighting), so the order rotates with the request index. *)
type twin = {
  m : mirror;
  d : Daemon.t;
  p : mirror;
  m_feed : feed;
  d_feed : feed;
  p_feed : feed;
  (* timed window only *)
  mutable m_ns : float;  (* traced mirror, whole request *)
  mutable p_ns : float;  (* untraced mirror, whole request *)
  mutable d_classify_ns : float;
  mutable d_classify_reqs : int;
  mutable d_train_ns : float;
  mutable d_train_reqs : int;
  mutable timed_reqs : int;
  mutable req_bytes : int;
  mutable classify_msgs : int;
  mutable train_msgs : int;
  mutable seq_before : int;
  mutable store_before : Store.stats option;
  mutable obs_before : (string * int) list;
  mutable mismatches : int;
}

let obs_counters =
  [ "intern.first_sighting"; "spambayes.prob_cache_hits"; "spambayes.prob_cache_fills" ]

let obs_snapshot () = List.map (fun c -> (c, Obs.counter_value c)) obs_counters

(* [dirs] are three private copies of the pristine state. *)
let open_twin ~wire_path ~store (mdir, ddir, pdir) =
  Obs.enable_metrics ();
  let store_dir dir = if store then Some (State.store_dir dir) else None in
  let mirror tracing dir =
    open_mirror ~tracing ~db_path:(State.db_file dir) ~store_dir:(store_dir dir)
  in
  let m = mirror true mdir in
  let config =
    {
      (Daemon.default_config ~db_path:(State.db_file ddir) ()) with
      store = Option.map State.store_config (store_dir ddir);
    }
  in
  let d =
    match Daemon.create config with
    | Ok d -> d
    | Error e -> failwith ("in-process daemon: " ^ e)
  in
  {
    m;
    d;
    p = mirror false pdir;
    m_feed = open_feed wire_path;
    d_feed = open_feed wire_path;
    p_feed = open_feed wire_path;
    m_ns = 0.0;
    p_ns = 0.0;
    d_classify_ns = 0.0;
    d_classify_reqs = 0;
    d_train_ns = 0.0;
    d_train_reqs = 0;
    timed_reqs = 0;
    req_bytes = 0;
    classify_msgs = 0;
    train_msgs = 0;
    seq_before = 0;
    store_before = None;
    obs_before = [];
    mismatches = 0;
  }

let twin_step t ~expected i (e : State.entry) =
  let tr = t.m.tr in
  if e.timed && not tr.counting then begin
    tr.counting <- true;
    t.seq_before <- t.m.seq;
    t.store_before <- Option.map Store.stats t.m.store;
    t.obs_before <- obs_snapshot ()
  end;
  let m_ns = ref 0.0 and d_ns = ref 0.0 and p_ns = ref 0.0 in
  let timed_mirror m feed ns () =
    let t0 = now () in
    let r = mirror_step m feed in
    ns := ns_since t0;
    r
  in
  let handle () =
    let req = next t.d_feed () in
    let t0 = now () in
    let resp = Daemon.handle_request t.d req in
    d_ns := ns_since t0;
    Protocol.render_response resp
  in
  let engines =
    [| timed_mirror t.m t.m_feed m_ns; handle; timed_mirror t.p t.p_feed p_ns |]
  in
  (* A publish allocates a db's worth of garbage, and the major GC work
     it leaves falls on whichever engine runs next: each engine starts
     its publish with that debt paid. *)
  let publishes = e.kind = State.Train && t.m.pending + e.msgs >= publish_every in
  for k = 0 to 2 do
    if publishes then Gc.major ();
    if engines.((i + k) mod 3) () <> expected then t.mismatches <- t.mismatches + 1
  done;
  let m_ns = !m_ns and d_ns = !d_ns and p_ns = !p_ns in
  if e.timed then begin
    t.m_ns <- t.m_ns +. m_ns;
    t.p_ns <- t.p_ns +. p_ns;
    t.timed_reqs <- t.timed_reqs + 1;
    t.req_bytes <- t.req_bytes + e.len;
    match e.kind with
    | State.Classify ->
        t.d_classify_ns <- t.d_classify_ns +. d_ns;
        t.d_classify_reqs <- t.d_classify_reqs + 1;
        t.classify_msgs <- t.classify_msgs + e.msgs
    | State.Train ->
        t.d_train_ns <- t.d_train_ns +. d_ns;
        t.d_train_reqs <- t.d_train_reqs + 1;
        t.train_msgs <- t.train_msgs + e.msgs
  end

let close_twin t =
  close_mirror t.m;
  close_mirror t.p;
  Daemon.shutdown t.d
