type config = { max_queries : int; min_explore : float }

let default_config ~max_queries = { max_queries; min_explore = 0.1 }

let margin scores true_class =
  let best_other = ref neg_infinity in
  for c = 0 to Tensor.numel scores - 1 do
    if c <> true_class then
      best_other := Float.max !best_other (Tensor.get_flat scores c)
  done;
  Tensor.get_flat scores true_class -. !best_other

(* The margin loss the random search minimizes, generalized to targeted
   goals: untargeted success is [margin < 0] at the true class, targeted
   success is [margin > 0] at the target class, so the targeted loss is
   the negated target margin.  Under a label-only oracle the observed
   vectors are one-hot and the loss degenerates to the flip indicator
   (constant on failures), so acceptance never prunes — the search
   degrades to pure random sampling, which is the honest decision-based
   variant of the framework. *)
let loss goal scores ~true_class =
  match (goal : Oppsla.Sketch.goal) with
  | Untargeted -> margin scores true_class
  | Targeted target -> -.margin scores target

(* The published schedule decays the fraction of the pixel set that is
   resampled as the query budget is consumed. *)
let explore_probability config spent =
  let frac = float_of_int spent /. float_of_int (max 1 config.max_queries) in
  let schedule =
    if frac < 0.02 then 1.0
    else if frac < 0.05 then 0.8
    else if frac < 0.1 then 0.6
    else if frac < 0.2 then 0.4
    else if frac < 0.5 then 0.2
    else config.min_explore
  in
  Float.max schedule config.min_explore

type multi_result = {
  adversarial : (Oppsla.Pair.t list * Tensor.t) option;
  queries : int;
}

exception Done of multi_result

(* Stall-watchdog heartbeat, beaten by the batcher on every metered
   query (observation only — no RNG draw, no metering). *)
let wd = Telemetry.Watchdog.loop "baseline.sparse_rs"

(* One copy of the image with the k pixels written in order (a later
   pair at the same location wins, as folding [Sketch.perturb] would):
   the adversarial image a successful attack returns. *)
let perturb_set image pairs =
  let x = Tensor.copy image in
  List.iter
    (fun (pair : Oppsla.Pair.t) ->
      Oppsla.Rgb.write_to_image x ~row:pair.loc.row ~col:pair.loc.col
        (Oppsla.Pair.rgb pair))
    pairs;
  x

(* The shared random-search engine: a state type with a cache key, an
   in-place builder ([write] a state's candidate into the arena slot), a
   fresh-copy builder for the adversarial image, an initial sample and a
   proposal kernel.  Both the k-pixel and the patch instantiations run
   the same accept-iff-loss-does-not-increase loop. *)
let search (type s) ~config ~goal ~image ~(key : s -> Score_cache.key)
    ~(write : Oppsla.Arena.t -> s -> Tensor.t) ~(materialize : s -> Tensor.t)
    ~(pairs_of : s -> Oppsla.Pair.t list) ~(initial : Prng.t -> s)
    ~(propose : spent:int -> s -> s) g oracle ~true_class =
  let batcher =
    Batcher.create ~max_queries:config.max_queries ~watchdog:wd oracle
  in
  let slot = Oppsla.Arena.create image in
  let query state =
    let scores =
      Batcher.query batcher ~input:(fun () -> write slot state) (key state)
    in
    if Oppsla.Sketch.goal_reached goal ~true_class (Tensor.argmax scores) then
      raise
        (Done
           {
             adversarial = Some (pairs_of state, materialize state);
             queries = Batcher.spent batcher;
           });
    loss goal scores ~true_class
  in
  Telemetry.Journal.with_default_site "baseline/sparse_rs" @@ fun () ->
  Telemetry.Watchdog.with_loop wd @@ fun () ->
  try
    let current = ref (initial g) in
    let current_loss = ref (query !current) in
    while true do
      let proposal = propose ~spent:(Batcher.spent batcher) !current in
      let l = query proposal in
      if l <= !current_loss then begin
        current := proposal;
        current_loss := l
      end
    done;
    assert false
  with
  | Done r -> r
  | Batcher.Out_of_queries ->
      { adversarial = None; queries = Batcher.spent batcher }

let attack_multi ?config ?(goal = Oppsla.Sketch.Untargeted) ~k g oracle ~image
    ~true_class =
  let d1 = Tensor.dim image 1 and d2 = Tensor.dim image 2 in
  if k < 1 || k > d1 * d2 then
    invalid_arg
      (Printf.sprintf "Sparse_rs.attack_multi: k = %d outside [1, %d]" k
         (d1 * d2));
  let gen = { Oppsla.Gen.d1; d2 } in
  let config =
    match config with
    | Some c -> c
    | None -> default_config ~max_queries:(Oppsla.Pair.count ~d1 ~d2)
  in
  (* Resample [count] of the pixels: each selected slot gets either a
     fresh location (exploration) or only a fresh color. *)
  let propose ~spent current =
    let explore = explore_probability config spent in
    let count = max 1 (int_of_float (Float.round (explore *. float_of_int k))) in
    let selected = Prng.sample_without_replacement g count (Array.init k Fun.id) in
    let next = Array.of_list current in
    Array.iter
      (fun i ->
        let keep_location = Prng.uniform g >= explore in
        let current_pair = next.(i) in
        if keep_location then begin
          let corner =
            let c = Prng.int g 7 in
            if c >= current_pair.Oppsla.Pair.corner then c + 1 else c
          in
          next.(i) <- Oppsla.Pair.make ~loc:current_pair.Oppsla.Pair.loc ~corner
        end
        else begin
          let others =
            Array.to_list next |> List.filteri (fun j _ -> j <> i)
            |> List.map (fun (p : Oppsla.Pair.t) -> p.loc)
          in
          next.(i) <-
            Oppsla.Pair.make
              ~loc:(Oppsla.Gen.random_loc_excluding gen g ~excluded:others)
              ~corner:(Prng.int g 8)
        end)
      selected;
    Array.to_list next
  in
  search ~config ~goal ~image
    ~key:(Oppsla.Space.set_key ~d2)
    ~write:Oppsla.Arena.pixels ~materialize:(perturb_set image)
    ~pairs_of:Fun.id
    ~initial:(fun g -> Oppsla.Gen.random_pixel_set gen g ~k)
    ~propose g oracle ~true_class

let attack_patch ?config ?(goal = Oppsla.Sketch.Untargeted) ~h ~w g oracle
    ~image ~true_class =
  let d1 = Tensor.dim image 1 and d2 = Tensor.dim image 2 in
  if h < 1 || w < 1 || h > d1 || w > d2 then
    invalid_arg
      (Printf.sprintf "Sparse_rs.attack_patch: %dx%d patch in a %dx%d image" h
         w d1 d2);
  let gen = { Oppsla.Gen.d1; d2 } in
  let anchors = (d1 - h + 1) * (d2 - w + 1) in
  let config =
    match config with
    | Some c -> c
    | None -> default_config ~max_queries:(8 * anchors)
  in
  (* Patch state is (anchor, fill corner).  Exploration re-anchors the
     patch globally; exploitation keeps the anchor and resamples only
     the corner (skipping the current one, as in the pixel kernel). *)
  let propose ~spent (anchor, corner) =
    let explore = explore_probability config spent in
    if Prng.uniform g < explore then Oppsla.Gen.random_patch gen g ~h ~w
    else begin
      let c = Prng.int g 7 in
      (anchor, if c >= corner then c + 1 else c)
    end
  in
  search ~config ~goal ~image
    ~key:(fun (anchor, corner) -> Oppsla.Space.patch_key ~anchor ~h ~w ~corner)
    ~write:(fun slot (anchor, corner) ->
      Oppsla.Arena.patch slot ~anchor ~h ~w ~corner)
    ~materialize:(fun (anchor, corner) ->
      Oppsla.Space.perturb_patch image ~anchor ~h ~w ~corner)
    ~pairs_of:(fun (anchor, corner) ->
      List.map
        (fun loc -> Oppsla.Pair.make ~loc ~corner)
        (Oppsla.Location.patch_cells ~anchor ~h ~w))
    ~initial:(fun g -> Oppsla.Gen.random_patch gen g ~h ~w)
    ~propose g oracle ~true_class

let attack_space ?config ?goal ~space g oracle ~image ~true_class =
  (* One dimensional series per search space — cardinality is bounded by
     the space grammar (pixel, kpixel:k, patch:hxw actually used). *)
  Telemetry.Counter.incr
    (Telemetry.Metrics.counter
       ~labels:[ ("space", Oppsla.Space.to_string space) ]
       "baseline.sparse_rs.attacks");
  match (space : Oppsla.Space.t) with
  | Pixel -> attack_multi ?config ?goal ~k:1 g oracle ~image ~true_class
  | Kpixel k -> attack_multi ?config ?goal ~k g oracle ~image ~true_class
  | Patch { h; w } ->
      attack_patch ?config ?goal ~h ~w g oracle ~image ~true_class

(* The reported pair is the set's first element; the whole set is in
   the adversarial image. *)
let to_result (r : multi_result) =
  {
    Oppsla.Sketch.adversarial =
      Option.map
        (fun (pairs, candidate) -> (List.hd pairs, candidate))
        r.adversarial;
    queries = r.queries;
  }

let attack ?config ?goal g oracle ~image ~true_class =
  to_result (attack_multi ?config ?goal ~k:1 g oracle ~image ~true_class)
