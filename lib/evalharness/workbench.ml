type classifier = {
  arch : string;
  net : Nn.Network.t;
  spec : Dataset.spec;
  test : (Tensor.t * int) array;
  test_accuracy : float;
  synth_sets : (Tensor.t * int) array array;
  backend : Nn.Backend.kind;
}

type config = {
  artifacts_dir : string option;
  seed : int;
  train_per_class : int;
  test_per_class : int;
  synth_per_class : int;
  epochs : int;
  log : string -> unit;
  backend : Nn.Backend.kind;
}

let default_config =
  {
    artifacts_dir = Some "_artifacts";
    seed = 42;
    train_per_class = 60;
    test_per_class = 8;
    synth_per_class = 10;
    epochs = 8;
    log = (fun _ -> ());
    backend = Nn.Backend.Boxed;
  }

let cifar_architectures = [ "vgg_tiny"; "resnet_tiny"; "googlenet_tiny" ]
let imagenet_architectures = [ "densenet_tiny"; "resnet50_tiny" ]

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let cache_path config file =
  match config.artifacts_dir with
  | None -> None
  | Some dir ->
      ensure_dir dir;
      Some (Filename.concat dir file)

let weights_key config (spec : Dataset.spec) arch =
  Printf.sprintf "%s_%s_s%d_tr%d_e%d.weights" spec.name arch config.seed
    config.train_per_class config.epochs

let train_classifier config (spec : Dataset.spec) arch =
  let ctor =
    match Nn.Zoo.by_name arch with
    | Some c -> c
    | None -> invalid_arg (Printf.sprintf "Workbench: unknown architecture %S" arch)
  in
  let root = Prng.of_int config.seed in
  let net =
    ctor
      (Prng.named_stream root (Printf.sprintf "init/%s/%s" spec.name arch))
      ~image_size:spec.image_size ~num_classes:spec.num_classes
  in
  let cached = cache_path config (weights_key config spec arch) in
  let hit =
    match cached with
    | Some path when Sys.file_exists path ->
        (try
           Nn.Serialize.load path net;
           config.log (Printf.sprintf "[workbench] loaded %s" path);
           true
         with Nn.Serialize.Format_error msg ->
           config.log
             (Printf.sprintf "[workbench] stale cache %s (%s); retraining" path
                msg);
           false)
    | _ -> false
  in
  if not hit then begin
    let train =
      Dataset.balanced_set spec ~seed:config.seed
        ~per_class:config.train_per_class
    in
    (* Some (architecture, init) combinations diverge at the default
       learning rate; halve it and retrain from a fresh init until the
       network actually learns.  The attack experiments need classifiers
       with real accuracy, so anything below 65% train accuracy counts as
       a failed run. *)
    let rec attempt lr tries =
      config.log
        (Printf.sprintf
           "[workbench] training %s on %s (%d images/class, %d epochs, lr %g)"
           arch spec.name config.train_per_class config.epochs lr);
      let fresh =
        ctor
          (Prng.named_stream root
             (Printf.sprintf "init/%s/%s/try%d" spec.name arch tries))
          ~image_size:spec.image_size ~num_classes:spec.num_classes
      in
      let train_config =
        {
          (Nn.Train.default_config ()) with
          epochs = config.epochs;
          optimizer =
            Nn.Optimizer.sgd ~momentum:0.9 ~weight_decay:1e-4 ~lr ();
        }
      in
      ignore
        (Nn.Train.fit ~config:train_config
           (Prng.named_stream root
              (Printf.sprintf "shuffle/%s/%s/try%d" spec.name arch tries))
           fresh train);
      let train_acc = Nn.Network.accuracy fresh train in
      if train_acc < 0.65 && tries < 3 then begin
        config.log
          (Printf.sprintf
             "[workbench] %s/%s failed to learn (train acc %.3f); retrying"
             spec.name arch train_acc);
        attempt (lr /. 2.) (tries + 1)
      end
      else fresh
    in
    let trained = attempt 0.05 0 in
    (* Copy the learned weights into [net] (same architecture, same
       parameter order). *)
    List.iter2
      (fun (dst : Nn.Param.t) (src : Nn.Param.t) ->
        Array.blit src.value.Tensor.data 0 dst.value.Tensor.data 0
          (Tensor.numel src.value))
      (Nn.Network.params net) (Nn.Network.params trained);
    match cached with
    | Some path ->
        Nn.Serialize.save path net;
        config.log (Printf.sprintf "[workbench] saved %s" path)
    | None -> ()
  end;
  net

let correctly_classified net samples =
  Array.of_list
    (List.filter
       (fun (x, c) -> Nn.Network.classify net x = c)
       (Array.to_list samples))

let load_classifier config spec arch =
  let net = train_classifier config spec arch in
  let test_all =
    (* Offset the seed so test images are disjoint from the classifier's
       training stream (mirrors Dataset.train_test). *)
    Dataset.balanced_set spec ~seed:(config.seed + 1000003)
      ~per_class:config.test_per_class
  in
  let test = correctly_classified net test_all in
  let test_accuracy =
    float_of_int (Array.length test) /. float_of_int (Array.length test_all)
  in
  let synth_sets =
    Array.init spec.num_classes (fun class_id ->
        correctly_classified net
          (Dataset.class_set spec ~seed:(config.seed + 2000003) ~class_id
             ~n:config.synth_per_class))
  in
  config.log
    (Printf.sprintf "[workbench] %s/%s: test acc %.3f (%d/%d attackable)"
       spec.name arch test_accuracy (Array.length test)
       (Array.length test_all));
  { arch; net; spec; test; test_accuracy; synth_sets; backend = config.backend }

let cifar_suite config =
  List.map (load_classifier config Dataset.synth_cifar) cifar_architectures

let imagenet_suite config =
  List.map
    (load_classifier config Dataset.synth_imagenet)
    imagenet_architectures

let oracle_factory (c : classifier) () =
  Oracle.of_network ~backend:c.backend c.net

(* The targeted protocol's sample set: attacking an image already
   classified as the target would succeed in zero queries, so those
   images are excluded up front (the targeted analogue of the untargeted
   protocol's correctly-classified filter). *)
let targeted_samples c ~target =
  if target < 0 || target >= c.spec.Dataset.num_classes then
    invalid_arg
      (Printf.sprintf "Workbench.targeted_samples: class %d outside [0, %d)"
         target c.spec.Dataset.num_classes);
  Array.of_list
    (List.filter (fun (_, cl) -> cl <> target) (Array.to_list c.test))

type synth_params = {
  iters : int;
  beta : float;
  synth_max_queries_per_image : int;
  domains : int option;
}

let default_synth_params =
  {
    iters = 40;
    beta = 0.02;
    synth_max_queries_per_image = 1024;
    domains = None;
  }

(* Workbench log lines render floats through [Telemetry.Fmt], the same
   formatters Report uses, so the two outputs can't drift in precision. *)
let log_cache_stats config label store =
  let s = Score_cache.store_stats store in
  let hit_rate = Option.value ~default:0. (Score_cache.hit_rate s) in
  config.log
    (Printf.sprintf
       "[workbench] %s cache: %d hits / %d misses (%s hit rate), %d entries, \
        %s MB"
       label s.Score_cache.hits s.Score_cache.misses
       (Telemetry.Fmt.percent hit_rate)
       s.Score_cache.entries
       (Telemetry.Fmt.mb s.Score_cache.bytes))

(* Program caches: one line per class, in the DSL concrete syntax. *)

let write_programs path programs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Array.iter
        (fun p -> output_string oc (Oppsla.Dsl.print_program p ^ "\n"))
        programs)

let read_programs path num_classes =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec lines acc =
        match input_line ic with
        | line ->
            if String.trim line = "" then lines acc
            else lines (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      let all = lines [] in
      if List.length all <> num_classes then None
      else
        try
          Some
            (Array.of_list (List.map Oppsla.Dsl.parse_program_exn all))
        with Invalid_argument _ -> None)

let with_program_cache config file num_classes compute =
  match cache_path config file with
  | None -> compute ()
  | Some path -> (
      if Sys.file_exists path then
        match read_programs path num_classes with
        | Some programs ->
            config.log (Printf.sprintf "[workbench] loaded %s" path);
            programs
        | None ->
            config.log
              (Printf.sprintf "[workbench] stale cache %s; resynthesizing" path);
            let programs = compute () in
            write_programs path programs;
            programs
      else begin
        let programs = compute () in
        write_programs path programs;
        config.log (Printf.sprintf "[workbench] saved %s" path);
        programs
      end)

(* Run [f] over the given pool, or over a transient one sized by
   [params.domains] when the caller did not thread a persistent pool
   through. *)
let with_synth_pool ?pool (params : synth_params) f =
  match pool with
  | Some pool -> f pool
  | None -> Domain_pool.Pool.with_pool ?domains:params.domains f

let synthesize_programs ?(params = default_synth_params) ?pool config c =
  let file =
    Printf.sprintf "%s_%s_s%d_oppsla_i%d_b%g_q%d_n%d_v3.programs" c.spec.name
      c.arch config.seed params.iters params.beta
      params.synth_max_queries_per_image config.synth_per_class
  in
  with_program_cache config file c.spec.num_classes (fun () ->
      with_synth_pool ?pool params @@ fun pool ->
      let root = Prng.of_int config.seed in
      Array.init c.spec.num_classes (fun class_id ->
          let training = c.synth_sets.(class_id) in
          if Array.length training = 0 then begin
            config.log
              (Printf.sprintf
                 "[workbench] %s/%s class %d: empty synthesis set, using \
                  Sketch+False"
                 c.spec.name c.arch class_id);
            Oppsla.Condition.const_false_program
          end
          else begin
            let g =
              Prng.named_stream root
                (Printf.sprintf "synth/%s/%s/%d" c.spec.name c.arch class_id)
            in
            let synth_config =
              {
                Oppsla.Islands.default_config with
                islands = 1;
                beta = params.beta;
                rounds = params.iters;
                max_queries_per_image =
                  Some params.synth_max_queries_per_image;
              }
            in
            (* One island is Algorithm 2's single MH chain.  Every
               proposal fans its per-image attacks out over the pool's
               domains (per-image oracle clones, image-order merge), so
               query accounting matches the sequential evaluator
               bit-for-bit.  The per-image score cache (shared across all
               proposals of this class's run) removes the repeated forward
               passes without touching that accounting. *)
            let caches = Score_cache.store (Array.length training) in
            let out =
              Oppsla.Islands.synthesize ~config:synth_config ~pool ~caches g
                (oracle_factory c ()) ~training
            in
            let chain = out.Oppsla.Islands.islands.(0) in
            log_cache_stats config
              (Printf.sprintf "synth %s/%s class %d" c.spec.name c.arch
                 class_id)
              caches;
            (* No attackable training image within the cap means every
               candidate scored the same penalty and the MH chain is a
               random walk: its final program carries no signal, so fall
               back to the fixed prioritization rather than ship noise. *)
            if
              chain.Oppsla.Islands.final_avg_queries
              >= Oppsla.Score.no_success_penalty
            then begin
              config.log
                (Printf.sprintf
                   "[workbench] %s/%s class %d: no attackable synthesis \
                    image, using Sketch+False"
                   c.spec.name c.arch class_id);
              Oppsla.Condition.const_false_program
            end
            else begin
              config.log
                (Printf.sprintf
                   "[workbench] %s/%s class %d: avg %.1f queries after %d \
                    synthesis queries"
                   c.spec.name c.arch class_id
                   chain.Oppsla.Islands.final_avg_queries
                   out.Oppsla.Islands.synth_queries);
              chain.Oppsla.Islands.final
            end
          end))

let sketch_random_programs ?(samples = 210) ?(max_queries_per_image = 1024)
    ?pool config c =
  let file =
    Printf.sprintf "%s_%s_s%d_random_k%d_q%d_n%d.programs" c.spec.name c.arch
      config.seed samples max_queries_per_image config.synth_per_class
  in
  with_program_cache config file c.spec.num_classes (fun () ->
      with_synth_pool ?pool default_synth_params @@ fun pool ->
      let root = Prng.of_int config.seed in
      Array.init c.spec.num_classes (fun class_id ->
          let training = c.synth_sets.(class_id) in
          if Array.length training = 0 then
            Oppsla.Condition.const_false_program
          else begin
            let g =
              Prng.named_stream root
                (Printf.sprintf "random/%s/%s/%d" c.spec.name c.arch class_id)
            in
            (* Same per-image store across all sampled programs — the
               random baseline revisits the same perturbation space 210
               times, so hit rates run even higher than MH synthesis. *)
            let caches = Score_cache.store (Array.length training) in
            let out =
              Baselines.Random_search.synthesize ~samples
                ~max_queries_per_image ~caches ~pool g
                (oracle_factory c ()) ~training
            in
            log_cache_stats config
              (Printf.sprintf "random %s/%s class %d" c.spec.name c.arch
                 class_id)
              caches;
            out.Baselines.Random_search.best
          end))
