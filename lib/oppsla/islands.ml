(* OPPSLA's synthesizer: Metropolis-Hastings over the sketch's holes
   (Algorithm 2), run as an island model.  One island with migration off
   is Algorithm 2 itself.

   K Metropolis-Hastings chains run in lockstep rounds at different
   temperatures (beta_k = beta * ratio^k; island 0 is the coldest and
   most selective, the hotter chains explore).  Every migration_period
   rounds each island looks at its ring neighbour's best program and
   adopts it as its chain position if it beats its own incumbent —
   migration is a deterministic comparison on a fixed schedule, so it
   consumes no randomness.

   Determinism model: island k draws exclusively from two named streams
   of the caller's root seed ("islands/<k>" for the chain,
   "islands/<k>/early-stop" for the PAC visiting permutations).  Named
   streams depend only on (root, name), never on draw order, so a
   (K, domain-width, migration-period) configuration replays
   bit-identically from the same seed: the domain pool only fans the
   per-image attacks of one evaluation, whose merge is order-preserving
   (see Score.evaluate).  Islands are stepped sequentially
   within a round, which also makes one shared Score_cache store safe —
   at any instant an image's cache slot is touched by one evaluation.

   Checkpointing: every checkpoint_every rounds the full synthesis state
   — both PRNG streams, chain position, best, counters and the trace so
   far, per island — is serialized to a versioned, self-describing,
   checksummed text file (atomic tmp+rename).  A killed run resumed from
   that file replays the remaining rounds on the restored streams and
   converges to the same trace as an uninterrupted run.  Checkpoints are
   only ever written at round boundaries; a run stopped mid-round (query
   budget) never persists partial-round state. *)

module C = Condition

exception Checkpoint_error of string

let version_line = "oppsla-islands-checkpoint v1"

type entry = {
  round : int;
  island : int;
  program : C.program;
  avg_queries : float;
  accepted : bool;
  pruned : bool;
  queries_total : int;
}

type island_report = {
  island : int;
  beta : float;
  final : C.program;
  final_avg_queries : float;
  best : C.program;
  best_avg_queries : float;
  proposals : int;
  accepted : int;
  pruned : int;
  migrations_in : int;
  queries : int;
}

type outcome = {
  best : C.program;
  best_avg_queries : float;
  islands : island_report array;
  trace : entry list;
  synth_queries : int;
  rounds_completed : int;
  migrations : int;
  resumed_at : int option;
}

type config = {
  islands : int;
  beta : float;
  temperature_ratio : float;
  rounds : int;
  migration_period : int;
  goal : Sketch.goal;
  max_queries_per_image : int option;
  max_synth_queries : int option;
  batch : int;
  early_stop : Score.pac option;
  checkpoint : string option;
  checkpoint_every : int;
  on_round : int -> unit;
}

let default_config =
  {
    islands = 4;
    beta = 0.02;
    temperature_ratio = 0.5;
    rounds = 210;
    migration_period = 10;
    goal = Sketch.Untargeted;
    max_queries_per_image = None;
    max_synth_queries = None;
    batch = Sketch.default_batch;
    early_stop = None;
    checkpoint = None;
    checkpoint_every = 10;
    on_round = (fun _ -> ());
  }

(* Mutable per-island chain state; exactly what a checkpoint round-trips. *)
type island_state = {
  k : int;
  beta_k : float;
  mutable rng : Prng.t;
  mutable es : Prng.t;
  mutable current : C.program;
  mutable current_avg : float;
  mutable best : C.program;
  mutable best_avg : float;
  mutable proposals : int;
  mutable accepted : int;
  mutable pruned : int;
  mutable migrations_in : int;
  mutable queries : int;
}

let m_rounds = Telemetry.Metrics.counter "islands.rounds"
let m_steps = Telemetry.Metrics.counter "islands.steps"
let m_accepted = Telemetry.Metrics.counter "islands.accepted"
let m_pruned = Telemetry.Metrics.counter "islands.pruned"
let m_migrations = Telemetry.Metrics.counter "islands.migrations"
let m_checkpoints = Telemetry.Metrics.counter "islands.checkpoints"

(* Per-node-class proposal counters.  The slot is the draw [Gen.mutate]
   would make, pulled up into [step], so counting it costs no extra RNG
   draw and the chain stream is the same with telemetry on or off. *)
let m_prop_root = Telemetry.Metrics.counter "islands.proposals.root"
let m_prop_condition = Telemetry.Metrics.counter "islands.proposals.condition"
let m_prop_function = Telemetry.Metrics.counter "islands.proposals.function"
let m_prop_constant = Telemetry.Metrics.counter "islands.proposals.constant"

let proposal_counter = function
  | "root" -> m_prop_root
  | "condition" -> m_prop_condition
  | "function" -> m_prop_function
  | _ -> m_prop_constant

let wd_run = Telemetry.Watchdog.loop "islands.run"

(* Watchdog.loop is get-or-create, so fetching a chain's slot by name is
   idempotent across resumes and repeated runs in one process. *)
let wd_chain k = Telemetry.Watchdog.loop (Printf.sprintf "islands.chain%d" k)

(* Dimensional step counter: one series per island, so the --metrics
   dump and the snapshots show per-chain progress.  Low cardinality by
   construction — one label value per configured island. *)
let m_steps_by k =
  Telemetry.Metrics.counter
    ~labels:[ ("island", string_of_int k) ]
    "islands.steps.by"

(* Journal charge-site tag for island [k]'s chain: charges incurred by
   chain evaluations are attributed to "islands/<k>" regardless of which
   inner machinery (sketch, score evaluators) spends them. *)
let chain_site k f = Telemetry.Journal.with_site (Printf.sprintf "islands/%d" k) f

(* ----- checkpoint serialization ----- *)

let ck_error fmt =
  Printf.ksprintf (fun m -> raise (Checkpoint_error ("checkpoint: " ^ m))) fmt

let goal_to_string = function
  | Sketch.Untargeted -> "untargeted"
  | Sketch.Targeted c -> Printf.sprintf "targeted %d" c

let goal_of_string s =
  match String.split_on_char ' ' s with
  | [ "untargeted" ] -> Sketch.Untargeted
  | [ "targeted"; c ] -> (
      match int_of_string_opt c with
      | Some c -> Sketch.Targeted c
      | None -> ck_error "bad goal %S" s)
  | _ -> ck_error "bad goal %S" s

let render_body ~config ~root_id ~training_n ~rounds_done ~synth_queries
    ~migrations ~states ~trace =
  let b = Buffer.create 4096 in
  let add fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  add "%s" version_line;
  add "islands %d" config.islands;
  add "training %d" training_n;
  add "beta %h" config.beta;
  add "temperature_ratio %h" config.temperature_ratio;
  add "migration_period %d" config.migration_period;
  add "goal %s" (goal_to_string config.goal);
  (match config.max_queries_per_image with
  | None -> add "max_queries_per_image none"
  | Some c -> add "max_queries_per_image %d" c);
  (match config.early_stop with
  | None -> add "early_stop none"
  | Some p ->
      add "early_stop %h %d %d %s" p.Score.delta p.Score.min_images
        p.Score.stage
        (match p.Score.range with
        | None -> "cap"
        | Some r -> Printf.sprintf "%h" r));
  add "root_id %s" root_id;
  add "rounds_done %d" rounds_done;
  add "synth_queries %d" synth_queries;
  add "migrations %d" migrations;
  Array.iter
    (fun st ->
      add "island %d" st.k;
      add "rng %s" (Prng.save st.rng);
      add "es %s" (Prng.save st.es);
      add "current_avg %h" st.current_avg;
      add "current %s" (Dsl.print_program st.current);
      add "best_avg %h" st.best_avg;
      add "best %s" (Dsl.print_program st.best);
      add "proposals %d" st.proposals;
      add "accepted %d" st.accepted;
      add "pruned %d" st.pruned;
      add "migrations_in %d" st.migrations_in;
      add "queries %d" st.queries)
    states;
  add "trace %d" (List.length trace);
  List.iter
    (fun e ->
      add "e %d %d %d %d %h %d %s" e.round e.island
        (if e.accepted then 1 else 0)
        (if e.pruned then 1 else 0)
        e.avg_queries e.queries_total
        (Dsl.print_program e.program))
    trace;
  Buffer.contents b

let write_checkpoint ~config ~root_id ~training_n ~rounds_done ~synth_queries
    ~migrations ~states ~trace file =
  Telemetry.Trace.span "islands.checkpoint" ~cat:"islands"
    ~args:(fun () ->
      [
        ("file", Telemetry.Trace.Str file);
        ("rounds_done", Telemetry.Trace.Int rounds_done);
      ])
  @@ fun () ->
  let body =
    render_body ~config ~root_id ~training_n ~rounds_done ~synth_queries
      ~migrations ~states ~trace
  in
  let tmp = file ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc body;
  Printf.fprintf oc "checksum %s\n" (Telemetry.Journal.fnv64_hex body);
  close_out oc;
  Sys.rename tmp file;
  Telemetry.Postmortem.note_checkpoint
    (Printf.sprintf "%s (rounds_done %d)" file rounds_done);
  Telemetry.Counter.incr m_checkpoints

type loaded = {
  l_islands : int;
  l_training : int;
  l_beta : float;
  l_ratio : float;
  l_migration_period : int;
  l_goal : Sketch.goal;
  l_cap : int option;
  l_early_stop : Score.pac option;
  l_root_id : string;
  l_rounds_done : int;
  l_synth_queries : int;
  l_migrations : int;
  l_states : island_state array;
  l_trace : entry list;
}

let parse_program_ck s =
  match Dsl.parse_program s with
  | Ok p -> p
  | Error _ -> ck_error "unparseable program %S" s

let restore_rng s =
  try Prng.restore s
  with Invalid_argument m -> ck_error "bad generator state (%s)" m

let float_ck s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> ck_error "bad float %S" s

let int_ck s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> ck_error "bad integer %S" s

(* Split off the first [n] space-separated fields; the remainder (which
   may itself contain spaces, e.g. a program in concrete syntax) is
   returned verbatim. *)
let split_fields s n =
  let rec go start n acc =
    if n = 0 then (List.rev acc, String.sub s start (String.length s - start))
    else
      match String.index_from_opt s start ' ' with
      | Some i ->
          go (i + 1) (n - 1) (String.sub s start (i - start) :: acc)
      | None -> ck_error "truncated record %S" s
  in
  go 0 n []

let parse_body lines =
  let rem = ref lines in
  let next () =
    match !rem with
    | [] -> ck_error "truncated file"
    | l :: tl ->
        rem := tl;
        l
  in
  let expect key =
    let l = next () in
    let klen = String.length key in
    if
      String.length l > klen
      && String.sub l 0 klen = key
      && l.[klen] = ' '
    then String.sub l (klen + 1) (String.length l - klen - 1)
    else ck_error "expected %S record, found %S" key l
  in
  let expect_int key = int_ck (expect key) in
  let expect_float key = float_ck (expect key) in
  let l_islands = expect_int "islands" in
  let l_training = expect_int "training" in
  let l_beta = expect_float "beta" in
  let l_ratio = expect_float "temperature_ratio" in
  let l_migration_period = expect_int "migration_period" in
  let l_goal = goal_of_string (expect "goal") in
  let l_cap =
    match expect "max_queries_per_image" with
    | "none" -> None
    | s -> Some (int_ck s)
  in
  let l_early_stop =
    match expect "early_stop" with
    | "none" -> None
    | s -> (
        match String.split_on_char ' ' s with
        | [ delta; min_images; stage; range ] ->
            Some
              {
                Score.delta = float_ck delta;
                min_images = int_ck min_images;
                stage = int_ck stage;
                range =
                  (if range = "cap" then None else Some (float_ck range));
              }
        | _ -> ck_error "bad early_stop record %S" s)
  in
  let l_root_id = expect "root_id" in
  let l_rounds_done = expect_int "rounds_done" in
  let l_synth_queries = expect_int "synth_queries" in
  let l_migrations = expect_int "migrations" in
  if l_islands <= 0 then ck_error "non-positive island count %d" l_islands;
  let l_states =
    Array.init l_islands (fun k ->
        let k' = expect_int "island" in
        if k' <> k then ck_error "island %d out of order (found %d)" k k';
        let rng = restore_rng (expect "rng") in
        let es = restore_rng (expect "es") in
        let current_avg = expect_float "current_avg" in
        let current = parse_program_ck (expect "current") in
        let best_avg = expect_float "best_avg" in
        let best = parse_program_ck (expect "best") in
        let proposals = expect_int "proposals" in
        let accepted = expect_int "accepted" in
        let pruned = expect_int "pruned" in
        let migrations_in = expect_int "migrations_in" in
        let queries = expect_int "queries" in
        {
          k;
          beta_k = l_beta *. (l_ratio ** float_of_int k);
          rng;
          es;
          current;
          current_avg;
          best;
          best_avg;
          proposals;
          accepted;
          pruned;
          migrations_in;
          queries;
        })
  in
  let n_entries = expect_int "trace" in
  let l_trace =
    List.init n_entries (fun _ ->
        let fields, program = split_fields (next ()) 7 in
        match fields with
        | [ "e"; round; island; accepted; pruned; avg; queries_total ] ->
            {
              round = int_ck round;
              island = int_ck island;
              program = parse_program_ck program;
              avg_queries = float_ck avg;
              accepted = int_ck accepted <> 0;
              pruned = int_ck pruned <> 0;
              queries_total = int_ck queries_total;
            }
        | _ -> ck_error "bad trace record")
  in
  if !rem <> [] then ck_error "trailing data after trace";
  {
    l_islands;
    l_training;
    l_beta;
    l_ratio;
    l_migration_period;
    l_goal;
    l_cap;
    l_early_stop;
    l_root_id;
    l_rounds_done;
    l_synth_queries;
    l_migrations;
    l_states;
    l_trace;
  }

let load_checkpoint file =
  if not (Sys.file_exists file) then
    raise (Checkpoint_error (Printf.sprintf "checkpoint: %s does not exist" file));
  let ic = open_in_bin file in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let lines =
    match List.rev (String.split_on_char '\n' s) with
    | "" :: rev -> List.rev rev
    | _ -> ck_error "missing final newline (truncated file?)"
  in
  (* Version is judged before the checksum so a future format bumps to a
     clear "unsupported version" instead of "corrupted". *)
  (match lines with
  | first :: _ when first = version_line -> ()
  | first :: _
    when String.length first >= 26
         && String.sub first 0 26 = "oppsla-islands-checkpoint " ->
      ck_error "unsupported version %S (this build reads %S)" first
        version_line
  | _ -> ck_error "%s is not an islands checkpoint" file);
  match List.rev lines with
  | checksum_line :: body_rev ->
      let body_lines = List.rev body_rev in
      let body = String.concat "\n" body_lines ^ "\n" in
      (match String.split_on_char ' ' checksum_line with
      | [ "checksum"; hex ] ->
          if hex <> Telemetry.Journal.fnv64_hex body then
            ck_error "checksum mismatch (file is corrupted or truncated)"
      | _ -> ck_error "missing checksum line (truncated file?)");
      parse_body (List.tl body_lines)
  | [] -> ck_error "empty file"

type info = {
  info_islands : int;
  info_training : int;
  info_rounds_done : int;
  info_synth_queries : int;
  info_trace_length : int;
}

let checkpoint_info file =
  let l = load_checkpoint file in
  {
    info_islands = l.l_islands;
    info_training = l.l_training;
    info_rounds_done = l.l_rounds_done;
    info_synth_queries = l.l_synth_queries;
    info_trace_length = List.length l.l_trace;
  }

let validate_loaded ~config ~root_id ~training_n l =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        raise
          (Checkpoint_error
             ("checkpoint does not match this configuration: " ^ m)))
      fmt
  in
  if l.l_islands <> config.islands then
    fail "islands %d (file) vs %d (run)" l.l_islands config.islands;
  if l.l_training <> training_n then
    fail "training size %d (file) vs %d (run)" l.l_training training_n;
  if l.l_beta <> config.beta then
    fail "beta %h (file) vs %h (run)" l.l_beta config.beta;
  if l.l_ratio <> config.temperature_ratio then
    fail "temperature_ratio %h (file) vs %h (run)" l.l_ratio
      config.temperature_ratio;
  if l.l_migration_period <> config.migration_period then
    fail "migration_period %d (file) vs %d (run)" l.l_migration_period
      config.migration_period;
  if l.l_goal <> config.goal then
    fail "goal %s (file) vs %s (run)" (goal_to_string l.l_goal)
      (goal_to_string config.goal);
  if l.l_cap <> config.max_queries_per_image then
    fail "max_queries_per_image differs";
  if l.l_early_stop <> config.early_stop then fail "early_stop differs";
  if l.l_root_id <> root_id then
    fail "seed differs (root fingerprint %s vs %s)" l.l_root_id root_id

(* ----- the synthesis loop ----- *)

let synthesize ?(config = default_config) ?pool ?caches ?(resume = false) g
    oracle ~training =
  if Array.length training = 0 then
    invalid_arg "Islands.synthesize: empty training set";
  if config.islands <= 0 then
    invalid_arg "Islands.synthesize: islands must be positive";
  if config.checkpoint_every <= 0 then
    invalid_arg "Islands.synthesize: checkpoint_every must be positive";
  let n = Array.length training in
  let gen_config = Gen.config_for_image (fst training.(0)) in
  let root_id = Prng.save (Prng.named_stream g "islands/root-id") in
  let synth_queries = ref 0 and migrations = ref 0 in
  let trace_rev = ref [] in
  let record ~round ~kind st program avg accepted pruned =
    let e =
      {
        round;
        island = st.k;
        program;
        avg_queries = avg;
        accepted;
        pruned;
        queries_total = !synth_queries;
      }
    in
    trace_rev := e :: !trace_rev;
    Telemetry.Counter.incr m_steps;
    Telemetry.Counter.incr (m_steps_by st.k);
    if accepted then Telemetry.Counter.incr m_accepted;
    if pruned then Telemetry.Counter.incr m_pruned;
    Telemetry.Watchdog.beat ~iteration:round ~queries:!synth_queries
      (wd_chain st.k);
    Telemetry.Watchdog.beat ~iteration:round ~queries:!synth_queries wd_run;
    Telemetry.Trace.instant "islands.step" ~cat:"islands"
      ~args:(fun () ->
        [
          ("round", Telemetry.Trace.Int round);
          ("island", Telemetry.Trace.Int st.k);
          ("kind", Telemetry.Trace.Str kind);
          ("avg_queries", Telemetry.Trace.Float avg);
          ("accepted", Telemetry.Trace.Bool accepted);
          ("pruned", Telemetry.Trace.Bool pruned);
          ("synth_queries_total", Telemetry.Trace.Int !synth_queries);
        ])
  in
  let evaluate_full program =
    Score.evaluate ?max_queries:config.max_queries_per_image ~goal:config.goal
      ?caches ~batch:config.batch ?pool oracle program training
  in
  let fresh_island k =
    {
      k;
      beta_k = config.beta *. (config.temperature_ratio ** float_of_int k);
      rng = Prng.named_stream g (Printf.sprintf "islands/%d" k);
      es = Prng.named_stream g (Printf.sprintf "islands/%d/early-stop" k);
      current = C.const_false_program;
      current_avg = infinity;
      best = C.const_false_program;
      best_avg = infinity;
      proposals = 0;
      accepted = 0;
      pruned = 0;
      migrations_in = 0;
      queries = 0;
    }
  in
  let start_round = ref 1 in
  let resumed_at = ref None in
  let states =
    if resume then begin
      let file =
        match config.checkpoint with
        | Some f -> f
        | None ->
            invalid_arg "Islands.synthesize: ~resume requires config.checkpoint"
      in
      let l = load_checkpoint file in
      validate_loaded ~config ~root_id ~training_n:n l;
      synth_queries := l.l_synth_queries;
      migrations := l.l_migrations;
      trace_rev := List.rev l.l_trace;
      start_round := l.l_rounds_done + 1;
      resumed_at := Some l.l_rounds_done;
      l.l_states
    end
    else Array.init config.islands fresh_island
  in
  let budget_left () =
    match config.max_synth_queries with
    | None -> true
    | Some b -> !synth_queries < b
  in
  let seed st =
    chain_site st.k @@ fun () ->
    Telemetry.Watchdog.with_loop (wd_chain st.k) @@ fun () ->
    st.current <- Gen.random_program gen_config st.rng;
    let e = evaluate_full st.current in
    synth_queries := !synth_queries + e.Score.total_queries;
    st.queries <- st.queries + e.Score.total_queries;
    st.current_avg <- e.Score.avg_queries;
    st.best <- st.current;
    st.best_avg <- e.Score.avg_queries;
    record ~round:0 ~kind:"seed" st st.current st.current_avg true false
  in
  let step ~round st =
    chain_site st.k @@ fun () ->
    Telemetry.Watchdog.with_loop (wd_chain st.k) @@ fun () ->
    let slot = Prng.int st.rng 13 in
    let kind = Gen.slot_kind slot in
    Telemetry.Counter.incr (proposal_counter kind);
    let proposal = Gen.mutate_slot gen_config st.rng st.current ~slot in
    st.proposals <- st.proposals + 1;
    let verdict =
      match config.early_stop with
      | None ->
          let e = evaluate_full proposal in
          synth_queries := !synth_queries + e.Score.total_queries;
          st.queries <- st.queries + e.Score.total_queries;
          `Avg e.Score.avg_queries
      | Some pac -> (
          let order = Prng.permutation st.es n in
          match
            Score.evaluate_pac ?max_queries:config.max_queries_per_image
              ~goal:config.goal ?caches ~batch:config.batch ?pool ~pac
              ~threshold:st.current_avg ~order oracle proposal training
          with
          | Score.Complete e ->
              synth_queries := !synth_queries + e.Score.total_queries;
              st.queries <- st.queries + e.Score.total_queries;
              `Avg e.Score.avg_queries
          | Score.Pruned p ->
              synth_queries := !synth_queries + p.Score.queries_spent;
              st.queries <- st.queries + p.Score.queries_spent;
              `Cut p.Score.lower_bound)
    in
    match verdict with
    | `Avg avg ->
        let ratio =
          Score.acceptance_ratio ~beta:st.beta_k ~current:st.current_avg
            ~proposal:avg
        in
        let accepted = Prng.uniform st.rng < ratio in
        if accepted then begin
          st.current <- proposal;
          st.current_avg <- avg;
          st.accepted <- st.accepted + 1
        end;
        if avg < st.best_avg then begin
          st.best <- proposal;
          st.best_avg <- avg
        end;
        record ~round ~kind st proposal avg accepted false
    | `Cut lower_bound ->
        (* Pruned proposals are rejected without an acceptance draw —
           see [config.early_stop] in islands.mli for the contract. *)
        st.pruned <- st.pruned + 1;
        record ~round ~kind st proposal lower_bound false true
  in
  let migrate ~round =
    let incoming = Array.map (fun st -> (st.best, st.best_avg)) states in
    Array.iteri
      (fun k st ->
        let best_in, avg_in = incoming.((k + 1) mod Array.length states) in
        if avg_in < st.current_avg then begin
          st.current <- best_in;
          st.current_avg <- avg_in;
          st.migrations_in <- st.migrations_in + 1;
          incr migrations;
          Telemetry.Counter.incr m_migrations;
          if avg_in < st.best_avg then begin
            st.best <- best_in;
            st.best_avg <- avg_in
          end;
          Telemetry.Trace.instant "islands.migration" ~cat:"islands"
            ~args:(fun () ->
              [
                ("round", Telemetry.Trace.Int round);
                ("island", Telemetry.Trace.Int k);
                ("avg_queries", Telemetry.Trace.Float avg_in);
              ])
        end)
      states
  in
  Telemetry.Watchdog.with_loop wd_run @@ fun () ->
  if not resume then Array.iter seed states;
  let completed = ref (!start_round - 1) in
  let stopped = ref false in
  let round = ref !start_round in
  while !round <= config.rounds && not !stopped do
    let r = !round in
    Telemetry.Trace.span "islands.round" ~cat:"islands"
      ~args:(fun () -> [ ("round", Telemetry.Trace.Int r) ])
      (fun () ->
        Array.iter
          (fun st -> if budget_left () then step ~round:r st else stopped := true)
          states;
        if not !stopped then begin
          if
            config.migration_period > 0
            && r mod config.migration_period = 0
            && Array.length states > 1
          then migrate ~round:r;
          completed := r;
          Telemetry.Counter.incr m_rounds;
          (match config.checkpoint with
          | Some file when r mod config.checkpoint_every = 0 ->
              write_checkpoint ~config ~root_id ~training_n:n ~rounds_done:r
                ~synth_queries:!synth_queries ~migrations:!migrations ~states
                ~trace:(List.rev !trace_rev) file
          | _ -> ());
          config.on_round r
        end);
    incr round
  done;
  (* A final round-boundary checkpoint makes a later --resume a graceful
     no-op; mid-round (budget-stopped) state is never persisted. *)
  (match config.checkpoint with
  | Some file when (not !stopped) && !completed >= 1 ->
      if !completed mod config.checkpoint_every <> 0 then
        write_checkpoint ~config ~root_id ~training_n:n
          ~rounds_done:!completed ~synth_queries:!synth_queries
          ~migrations:!migrations ~states ~trace:(List.rev !trace_rev) file
  | _ -> ());
  let best_state =
    Array.fold_left
      (fun acc st -> if st.best_avg < acc.best_avg then st else acc)
      states.(0) states
  in
  {
    best = best_state.best;
    best_avg_queries = best_state.best_avg;
    islands =
      Array.map
        (fun st ->
          {
            island = st.k;
            beta = st.beta_k;
            final = st.current;
            final_avg_queries = st.current_avg;
            best = st.best;
            best_avg_queries = st.best_avg;
            proposals = st.proposals;
            accepted = st.accepted;
            pruned = st.pruned;
            migrations_in = st.migrations_in;
            queries = st.queries;
          })
        states;
    trace = List.rev !trace_rev;
    synth_queries = !synth_queries;
    rounds_completed = !completed;
    migrations = !migrations;
    resumed_at = !resumed_at;
  }
