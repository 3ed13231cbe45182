(* Serve benchmark client.  Subcommands (perfbench/run.py drives them):

     prepare --seed N --size full|smoke --workload W --out DIR
         build the seeded state and W's schedule into DIR
     expect --state DIR --work DIR --workload W --out DIR
         replay the schedule in-process on the pristine copy in --work
         and write the expected answers and STATS counters to --out
     session --state DIR --work DIR --workload W --spamlab EXE
             --expect DIR [--twin-work DIR]
         one out-of-process daemon session on the copy in --work; with
         --twin-work (three more copies, in m/, d/ and p/) each request
         is also replayed in-process, traced

   session prints one JSON object on stdout; problems found are listed
   under "errors" (a nonzero exit means the command itself failed). *)

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let rec emit b = function
  | Num f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (Spamlab_obs.Json.escape_string s);
      Buffer.add_char b '"'
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i j ->
          if i > 0 then Buffer.add_char b ',';
          emit b j)
        l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, j) ->
          if i > 0 then Buffer.add_char b ',';
          emit b (Str k);
          Buffer.add_char b ':';
          emit b j)
        l;
      Buffer.add_char b '}'

let print_json j =
  let b = Buffer.create 4096 in
  emit b j;
  print_endline (Buffer.contents b)

let floats a = Arr (Array.to_list (Array.map (fun f -> Num f) a))
let strs l = Arr (List.map (fun s -> Str s) l)

(* ------------------------------------------------------------------ *)
(* Expected answers                                                    *)

let resp_file dir = Filename.concat dir "expect.resp"
let stats_file dir = Filename.concat dir "expect.stats"

let write_expect dir (responses : string array) stats =
  let b = Buffer.create (1 lsl 20) in
  Array.iter
    (fun r ->
      Buffer.add_string b (string_of_int (String.length r));
      Buffer.add_char b '\n';
      Buffer.add_string b r)
    responses;
  State.write_file (resp_file dir) (Buffer.contents b);
  State.write_file (stats_file dir)
    (String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s %d\n" k v) stats))

let read_expect dir =
  let s = State.read_file (resp_file dir) in
  let acc = ref [] and pos = ref 0 in
  while !pos < String.length s do
    let nl = String.index_from s !pos '\n' in
    let len = int_of_string (String.sub s !pos (nl - !pos)) in
    acc := String.sub s (nl + 1) len :: !acc;
    pos := nl + 1 + len
  done;
  let stats =
    State.read_file (stats_file dir)
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with
           | [ k; v ] -> Some (k, int_of_string v)
           | _ -> None)
  in
  (Array.of_list (List.rev !acc), stats)

(* ------------------------------------------------------------------ *)
(* Subcommands                                                         *)

let store_of_workload w = w = "tenants-zipf"

let expect ~state ~work ~workload ~out =
  let _, index = State.load_schedule state workload in
  let responses, stats =
    Replay.expected_answers ~db_path:(State.db_file work)
      ~store_dir:
        (if store_of_workload workload then Some (State.store_dir work) else None)
      ~wire_path:(State.wire_file state workload) index
  in
  write_expect out responses stats

(* The traced replay's raw sums, from which run.py derives the
   per-layer metrics. *)
let twin_json (t : Replay.twin) =
  let m = t.m in
  let tr = m.tr in
  let layer l = tr.self_ns.(Replay.layer_index l) in
  let calls l = tr.calls.(Replay.layer_index l) in
  let store_delta f =
    match (t.store_before, m.store) with
    | Some a, Some st -> f (Spamlab_store.Store.stats st) - f a
    | _ -> 0
  in
  let obs c = Spamlab_obs.Obs.counter_value c - List.assoc c t.obs_before in
  Obj
    [
      ("timed_reqs", Int t.timed_reqs);
      ("req_bytes", Int t.req_bytes);
      ("classify_msgs", Int t.classify_msgs);
      ("train_msgs", Int t.train_msgs);
      ("publishes", Int (m.seq - t.seq_before));
      ("mirror_ns", Num t.m_ns);
      ("plain_ns", Num t.p_ns);
      ("handle_classify_ns", Num t.d_classify_ns);
      ("handle_classify_reqs", Int t.d_classify_reqs);
      ("handle_train_ns", Num t.d_train_ns);
      ("handle_train_reqs", Int t.d_train_reqs);
      ( "self_ns",
        Obj
          (List.map
             (fun (name, l) -> (name, Num (layer l)))
             [
               ("parse", Replay.Parse);
               ("daemon", Daemon_glue);
               ("chunk", Chunk);
               ("mbox", Mbox_parse);
               ("tokenize", Tokenize);
               ("score", Score);
               ("train", Train);
               ("save", Save);
               ("copy", Copy);
               ("freeze", Freeze);
               ("cache", Cache);
               ("store_user", Store_user);
               ("store_journal", Store_journal);
               ("store_commit", Store_commit);
               ("render", Render);
             ]) );
      ("commits", Int (calls Store_commit));
      ("journal_calls", Int (calls Store_journal));
      ("tokens", Int m.tokens);
      ("msgs_tokenized", Int m.msgs_tokenized);
      ("msgs_scored", Int m.msgs_scored);
      ("publish_bytes", Int m.publish_bytes);
      ("materialize_ns", Num m.materialize_ns);
      ("materializations", Int m.materializations);
      ("store_hits", Int (store_delta (fun s -> s.hits)));
      ("store_misses", Int (store_delta (fun s -> s.misses)));
      ("store_evictions", Int (store_delta (fun s -> s.evictions)));
      ("store_journal_ops", Int (store_delta (fun s -> s.journal_ops)));
      ("store_journal_bytes", Int (store_delta (fun s -> s.journal_bytes)));
      ("store_compactions", Int (store_delta (fun s -> s.compactions)));
      ("first_sightings", Int (obs "intern.first_sighting"));
      ("cache_hits", Int (obs "spambayes.prob_cache_hits"));
      ("cache_fills", Int (obs "spambayes.prob_cache_fills"));
    ]

let session ~state ~work ~workload ~spamlab ~expect ~twin_work =
  let wire, index = State.load_schedule state workload in
  let expected, expected_stats = read_expect expect in
  let store = store_of_workload workload in
  let twin =
    Option.map
      (fun dir ->
        Replay.open_twin ~wire_path:(State.wire_file state workload) ~store
          (Filename.concat dir "m", Filename.concat dir "d", Filename.concat dir "p"))
      twin_work
  in
  let r =
    Session.run ~spamlab ~work ~store ~wire ~index ~expected
      ~expected_stats
      ~after:(fun i e ->
        Option.iter (fun t -> Replay.twin_step t ~expected:expected.(i) i e) twin)
  in
  let trace =
    match twin with
    | None -> []
    | Some t ->
        let j = twin_json t in
        Replay.close_twin t;
        [ ("trace", j) ]
  in
  let errors =
    r.errors
    @
    match twin with
    | Some t when t.mismatches > 0 ->
        [ Printf.sprintf "%d in-process answers differ from the expected" t.mismatches ]
    | _ -> []
  in
  print_json
    (Obj
       ([
          ("setup_s", Num r.setup_s);
          ("wall_s", Num r.wall_s);
          ("classify_msgs", Int r.classify_msgs);
          ("train_msgs", Int r.train_msgs);
          ("cpu_ticks", Int r.cpu_ticks);
          ("rss_kb", Int r.rss_kb);
          ("wchar", Int r.wchar);
          ("resp_bytes", Int r.resp_bytes);
          ("rtt_us", floats r.rtt_us);
          ("kinds", Str r.kinds);
          ("seg_wall_ns", floats r.seg_wall_ns);
          ("seg_cpu_ns", Arr (Array.to_list (Array.map (fun i -> Int i) r.seg_cpu_ns)));
          ("connect_us", floats r.connect_us);
          ("rtt_ns", Num r.rtt_ns);
          ( "tally",
            Obj
              (List.map
                 (fun (verb, (t : Session.tally)) ->
                   ( verb,
                     Obj
                       [
                         ("ok", Int t.ok);
                         ("err", Int t.err);
                         ("busy", Int t.busy);
                         ("transport", Int t.transport);
                       ] ))
                 r.tallies) );
          ("errors", strs errors);
        ]
       @ trace))

let () =
  let args = Array.to_list Sys.argv in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | x :: _ -> failwith ("unexpected argument " ^ x)
  in
  let usage () =
    prerr_endline "usage: perfbench prepare|expect|session --key value ...";
    exit 2
  in
  match args with
  | _ :: cmd :: rest -> (
      let o = opts [] rest in
      let get k =
        match List.assoc_opt k o with
        | Some v -> v
        | None ->
            prerr_endline ("perfbench: missing --" ^ k);
            exit 2
      in
      match cmd with
      | "prepare" -> (
          match State.size_of_string (get "size") with
          | None -> usage ()
          | Some size ->
              State.build ~seed:(int_of_string (get "seed")) ~size
                ~workload:(get "workload") (get "out"))
      | "expect" ->
          expect ~state:(get "state") ~work:(get "work")
            ~workload:(get "workload") ~out:(get "out")
      | "session" ->
          session ~state:(get "state") ~work:(get "work")
            ~workload:(get "workload") ~spamlab:(get "spamlab")
            ~expect:(get "expect") ~twin_work:(List.assoc_opt "twin-work" o)
      | _ -> usage ())
  | _ -> usage ()
