(* Seeded benchmark inputs: the shared token db, a workload's request
   schedule and, for tenants-zipf, the pre-built tenant store, all a
   pure function of (seed, size, workload).  Built once into a state
   directory that every daemon start and replay copies, so the daemon
   only ever sees generated inputs and always starts from pristine
   state. *)

module Sb = Spamlab_spambayes
module Rng = Spamlab_stats.Rng
module Gen = Spamlab_corpus.Generator
module Mbox = Spamlab_email.Mbox
module Label = Sb.Label
module Protocol = Spamlab_serve.Protocol
module Store = Spamlab_store.Store

type size = {
  train_msgs : int;  (* messages the shared db is trained on *)
  pool_msgs : int;  (* held-out messages CLASSIFY bodies draw from *)
  feedback_msgs : int;  (* held-out messages TRAIN bodies draw from *)
  tenants : int;  (* tenant population of the store, each pre-trained *)
  spamc_warm : int;
  spamc_reqs : int;
  batch_warm : int;  (* CLASSIFY batches before the timed window *)
  batch_reqs : int;  (* CLASSIFY batches in the timed window *)
  zipf_fill : int;  (* distinct tenants touched before the timed window *)
  zipf_reqs : int;
}

let full =
  {
    train_msgs = 4_000;
    pool_msgs = 1_500;
    feedback_msgs = 1_000;
    tenants = 12_288;
    spamc_warm = 300;
    spamc_reqs = 3_000;
    batch_warm = 10;
    batch_reqs = 200;
    zipf_fill = 5_000;
    zipf_reqs = 2_000;
  }

let smoke =
  {
    train_msgs = 300;
    pool_msgs = 120;
    feedback_msgs = 120;
    tenants = 300;
    spamc_warm = 10;
    spamc_reqs = 60;
    batch_warm = 2;
    batch_reqs = 150;
    zipf_fill = 100;
    zipf_reqs = 750;
  }

let size_of_string = function
  | "full" -> Some full
  | "smoke" -> Some smoke
  | _ -> None

let batch_size = 32
let feedback_per_100 = 1  (* TRAIN messages per 100 classified *)
let zipf_train_every = 20

(* Store layout the daemon opens with its default flags. *)
let store_config dir = { Store.default_config with backend = `Sharded dir }
let db_file dir = Filename.concat dir "shared.db"
let store_dir dir = Filename.concat dir "store"
let wire_file dir w = Filename.concat dir (w ^ ".wire")
let index_file dir w = Filename.concat dir (w ^ ".idx")

(* ------------------------------------------------------------------ *)
(* Schedules                                                           *)

type kind = Classify | Train

type entry = {
  kind : kind;
  msgs : int;  (* messages in the body *)
  fresh_conn : bool;  (* spamc-style: connect, one request, close *)
  timed : bool;  (* false during warm-up *)
  off : int;  (* request bytes within the wire file *)
  len : int;
}

let entry_line e =
  Printf.sprintf "%c %d %c %c %d %d\n"
    (match e.kind with Classify -> 'C' | Train -> 'T')
    e.msgs
    (if e.fresh_conn then 'N' else 'P')
    (if e.timed then 'M' else 'W')
    e.off e.len

let parse_entry line =
  Scanf.sscanf line "%c %d %c %c %d %d" (fun k msgs c p off len ->
      {
        kind = (if k = 'C' then Classify else Train);
        msgs;
        fresh_conn = c = 'N';
        timed = p = 'M';
        off;
        len;
      })

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let load_schedule dir w =
  let wire = read_file (wire_file dir w) in
  let index =
    read_file (index_file dir w)
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map parse_entry |> Array.of_list
  in
  (wire, index)

(* Accumulates rendered requests and their index entries. *)
type writer = { wire : Buffer.t; mutable entries : entry list }

let writer () = { wire = Buffer.create (1 lsl 20); entries = [] }

let add w ~kind ~msgs ~fresh_conn ~timed (req : Protocol.request) =
  let bytes = Protocol.render_request req in
  w.entries <-
    {
      kind;
      msgs;
      fresh_conn;
      timed;
      off = Buffer.length w.wire;
      len = String.length bytes;
    }
    :: w.entries;
  Buffer.add_string w.wire bytes

let save w dir name =
  write_file (wire_file dir name) (Buffer.contents w.wire);
  write_file (index_file dir name)
    (String.concat "" (List.rev_map entry_line w.entries))

(* ------------------------------------------------------------------ *)
(* Build                                                               *)

(* Labels alternate, so every seed's corpus and pools are exactly half
   spam: the mix moves latency percentiles, and must not vary by seed. *)
let gen_message cfg rng i =
  let label = if i mod 2 = 0 then Label.Spam else Label.Ham in
  let msg =
    match label with Label.Spam -> Gen.spam cfg rng | Label.Ham -> Gen.ham cfg rng
  in
  (label, msg)

let tenant_name i = Printf.sprintf "t%05d" i

(* Zipf (s = 1) sampler over ranks 0..n-1 by inverse CDF. *)
let zipf_sampler n =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. float_of_int (k + 1));
    cdf.(k) <- !acc
  done;
  let total = !acc in
  fun rng ->
    let u = Rng.float rng *. total in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then search (mid + 1) hi else search lo mid
    in
    search 0 (n - 1)

(* Indices 0..n-1 in seeded random order, reshuffled after each pass:
   a schedule drawing pool messages this way holds the pool's exact
   mix. *)
let cycle rng n =
  let order = Array.init n Fun.id and pos = ref n in
  fun () ->
    if !pos = n then begin
      Rng.shuffle rng order;
      pos := 0
    end;
    incr pos;
    order.(!pos - 1)

let classify_req ?user body = { Protocol.verb = Protocol.Classify; body; user }

let train_req ?user label body =
  { Protocol.verb = Protocol.Train label; body; user }

(* The store's user-to-shard hash (32-bit FNV-1a, fixed by its on-disk
   layout); [pad_journal] checks the shard it lands on by file size. *)
let shard_of user =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff) user;
  !h mod Store.default_config.shards

let file_size path = (Unix.stat path).Unix.st_size
let seg_file dir s = Filename.concat (store_dir dir) (Printf.sprintf "shard-%04d.seg" s)
let jrn_file dir s = Filename.concat (store_dir dir) (Printf.sprintf "shard-%04d.journal" s)

(* Committed journal bytes [pad_journal] leaves below the shard's
   compaction threshold: fewer than any one training message adds. *)
let pad_slack = 64
let commit_marker = 15  (* "C\tcrc=%08x\n", appended by close *)

(* Fill shard [s]'s journal with a padding user's training ops (one
   fixed token set, so its overlay stays small) up to [pad_slack]
   bytes under [compact_ratio] x the segment: the daemon's first commit
   after a TRAIN into the shard then compacts it. *)
let pad_journal st dir s =
  let user =
    Seq.ints 0 |> Seq.map (Printf.sprintf "pad%d")
    |> Seq.find (fun u -> shard_of u = s) |> Option.get
  in
  let limit =
    int_of_float Store.default_config.compact_ratio * file_size (seg_file dir s)
  in
  let target = limit - pad_slack - commit_marker in
  let appended () = (Store.stats st).journal_bytes in
  let start = appended () in
  let op tokens = Store.train st ~user Label.Ham tokens in
  (* A one-token op of length n adds [one + n] bytes. *)
  op [| "x" |];
  let one = appended () - start - 1 in
  let big = Array.init 64 (fun i -> Printf.sprintf "pad%02d-%s" i (String.make 40 'x')) in
  op big;
  let big_len = appended () - start - one - 1 in
  while target - (appended () - start) >= big_len + one + 1 do
    op big
  done;
  let rest = target - (appended () - start) - one in
  if rest < 1 then failwith "store: shard too small to pad";
  op [| String.make rest 'y' |];
  limit

(* [root] is the seed's generator; every input takes its own named
   stream, so building one workload's inputs never shifts another's. *)
let build_store ~root ~size ~filter ~feedback ~compacting dir =
  (* Every tenant trained on one held-out message, then compacted into
     segments so the daemon materializes tenants from segment extents.
     The [compacting] shards' journals are then padded to just under
     the compaction threshold. *)
  match
    Store.open_store
      ~prior:(Sb.Token_db.copy (Sb.Filter.db filter))
      (store_config (store_dir dir))
  with
  | Error e -> failwith ("store: " ^ e)
  | Ok st ->
      let rng = Rng.split_named root "tenants" in
      let features = Array.map (fun (_, m) -> Sb.Filter.features filter m) feedback in
      for i = 0 to size.tenants - 1 do
        let k = Rng.int rng size.feedback_msgs in
        Store.train st ~user:(tenant_name i) (fst feedback.(k)) features.(k)
      done;
      Store.compact_all st;
      let header = List.map (fun s -> (s, file_size (jrn_file dir s))) compacting in
      let limits = List.map (fun s -> (s, pad_journal st dir s)) compacting in
      Store.close st;
      (* The padding landed on the intended shard, committed, and under
         the threshold. *)
      List.iter
        (fun (s, limit) ->
          let payload = file_size (jrn_file dir s) - List.assoc s header in
          if payload <> limit - pad_slack then
            failwith (Printf.sprintf "store: shard %d journal padded to %d, not %d" s
                        payload (limit - pad_slack)))
        limits

(* spamc-classify: one held-out message per connection. *)
let spamc_schedule ~root ~size ~pool_bodies =
  let w = writer () in
  let next = cycle (Rng.split_named root "spamc-classify") size.pool_msgs in
  for i = 0 to size.spamc_warm + size.spamc_reqs - 1 do
    add w ~kind:Classify ~msgs:1 ~fresh_conn:true
      ~timed:(i >= size.spamc_warm)
      (classify_req pool_bodies.(next ()))
  done;
  w

(* batch-feedback: 32-message CLASSIFY batches on one connection,
   single-message TRAIN feedback at 1 per 100 classified.  Feedback
   sits at fixed positions, so every seed's schedule holds the same
   number of TRAINs and publishes. *)
let batch_schedule ~root ~size ~pool ~feedback ~feedback_bodies =
  let w = writer () in
  let next = cycle (Rng.split_named root "batch-feedback") size.pool_msgs in
  let next_feedback = ref 0 in
  let trains_due batches = batches * batch_size * feedback_per_100 / 100 in
  for i = 0 to size.batch_warm + size.batch_reqs - 1 do
    let timed = i >= size.batch_warm in
    let batch =
      List.init batch_size (fun _ -> snd pool.(next ()))
    in
    add w ~kind:Classify ~msgs:batch_size ~fresh_conn:false ~timed
      (classify_req (Mbox.print batch));
    if trains_due (i + 1) > trains_due i then begin
      let k = !next_feedback mod size.feedback_msgs in
      incr next_feedback;
      add w ~kind:Train ~msgs:1 ~fresh_conn:false ~timed
        (train_req (fst feedback.(k)) feedback_bodies.(k))
    end
  done;
  w

(* tenants-zipf: User-routed single-message CLASSIFY, tenants drawn Zipf
   over a seeded rank permutation, every 20th request a TRAIN.  Untimed,
   empty-bodied CLASSIFYs first touch more tenants than the overlay
   cache holds, least popular first, so the timed window starts from a
   full cache with the head most recently used, as in a long-running
   daemon, and its cold tail evicts. *)
let zipf_schedule ~root ~size ~pool_bodies ~feedback ~feedback_bodies =
  let w = writer () and trainees = ref [] in
  let rng = Rng.split_named root "tenants-zipf" in
  let rank_to_tenant = Array.init size.tenants Fun.id in
  Rng.shuffle rng rank_to_tenant;
  for r = min size.zipf_fill size.tenants - 1 downto 0 do
    add w ~kind:Classify ~msgs:0 ~fresh_conn:false ~timed:false
      (classify_req ~user:(tenant_name rank_to_tenant.(r)) "")
  done;
  let zipf = zipf_sampler size.tenants in
  let next = cycle (Rng.split_named root "tenants-zipf-pool") size.pool_msgs in
  for i = 1 to size.zipf_reqs do
    let user = tenant_name rank_to_tenant.(zipf rng) in
    if i mod zipf_train_every = 0 then begin
      let k = Rng.int rng size.feedback_msgs in
      trainees := user :: !trainees;
      add w ~kind:Train ~msgs:1 ~fresh_conn:false ~timed:true
        (train_req ~user (fst feedback.(k)) feedback_bodies.(k))
    end
    else
      add w ~kind:Classify ~msgs:1 ~fresh_conn:false ~timed:true
        (classify_req ~user pool_bodies.(next ()))
  done;
  (w, List.rev !trainees)

(* Shards whose journals the store is built with just under the
   compaction threshold: the first [compactions] distinct shards TRAINed
   into before the daemon's first publish, so a run holds exactly
   [compactions] compactions, all at that publish. *)
let compactions = 1

let compacting_shards trainees =
  let publish_every = (Spamlab_serve.Daemon.default_config ~db_path:"" ()).publish_every in
  let first_publish = List.filteri (fun i _ -> i < publish_every) trainees in
  let shards =
    List.fold_left
      (fun acc u ->
        let s = shard_of u in
        if List.mem s acc || List.length acc = compactions then acc else acc @ [ s ])
      [] first_publish
  in
  if List.length shards < compactions then failwith "store: too few TRAINed shards";
  shards

(* The shared db, the workload's schedule and, for tenants-zipf, the
   tenant store. *)
let build ~seed ~size ~workload dir =
  let root = Rng.create seed in
  let cfg = Gen.default_config ~seed () in
  let messages name n =
    let rng = Rng.split_named root name in
    Array.init n (gen_message cfg rng)
  in
  let corpus = messages "train" size.train_msgs in
  let pool = messages "pool" size.pool_msgs in
  let feedback = messages "feedback" size.feedback_msgs in
  let filter = Sb.Filter.create () in
  Array.iter (fun (label, m) -> Sb.Filter.train filter label m) corpus;
  Sb.Filter.save_file filter (db_file dir);
  let one (_, m) = Mbox.print [ m ] in
  let pool_bodies = Array.map one pool in
  let feedback_bodies = Array.map one feedback in
  let w =
    match workload with
    | "spamc-classify" -> spamc_schedule ~root ~size ~pool_bodies
    | "batch-feedback" ->
        batch_schedule ~root ~size ~pool ~feedback ~feedback_bodies
    | "tenants-zipf" ->
        let w, trainees =
          zipf_schedule ~root ~size ~pool_bodies ~feedback ~feedback_bodies
        in
        build_store ~root ~size ~filter ~feedback
          ~compacting:(compacting_shards trainees) dir;
        w
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  save w dir workload
