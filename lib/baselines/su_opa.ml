type config = { population : int; f : float; max_queries : int }

let default_config ~max_queries = { population = 400; f = 0.5; max_queries }

(* A candidate is [| row; col; r; g; b |] with row/col as floats in
   [0, d1) / [0, d2) and colors in [0, 1]. *)

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

let pixel_of image cand =
  let d1 = Tensor.dim image 1 and d2 = Tensor.dim image 2 in
  let row = clamp 0 (d1 - 1) (int_of_float cand.(0)) in
  let col = clamp 0 (d2 - 1) (int_of_float cand.(1)) in
  (row, col)

let rgb cand = { Oppsla.Rgb.r = cand.(2); g = cand.(3); b = cand.(4) }

(* A fresh copy of the image carrying the candidate's pixel: the
   adversarial image a successful attack returns. *)
let build image ~row ~col cand =
  let x' = Tensor.copy image in
  Oppsla.Rgb.write_to_image x' ~row ~col (rgb cand);
  x'

(* Continuous colors don't fit the corner key space, so memoize under an
   exact-bits custom key: two candidates hit the same entry iff they
   perturb the same pixel with float-identical colors. *)
let cache_key ~row ~col cand =
  Score_cache.Custom
    (Printf.sprintf "rgb:%d,%d,%Lx,%Lx,%Lx" row col
       (Int64.bits_of_float cand.(2))
       (Int64.bits_of_float cand.(3))
       (Int64.bits_of_float cand.(4)))

(* A generation (or the initial population) completed with a success. *)
exception Done

(* Stall-watchdog heartbeat, beaten by the batcher on every metered
   query. *)
let wd = Telemetry.Watchdog.loop "baseline.su_opa"

let nearest_corner_pair ~row ~col cand =
  let bit v = if v >= 0.5 then 1 else 0 in
  let corner = (bit cand.(2) * 4) + (bit cand.(3) * 2) + bit cand.(4) in
  Oppsla.Pair.make ~loc:(Oppsla.Location.make ~row ~col) ~corner

let attack ?config ?(batch = Oppsla.Sketch.default_batch)
    ?(goal = Oppsla.Sketch.Untargeted) g oracle ~image ~true_class =
  let d1 = Tensor.dim image 1 and d2 = Tensor.dim image 2 in
  let config =
    match config with
    | Some c -> c
    | None -> default_config ~max_queries:(Oppsla.Pair.count ~d1 ~d2)
  in
  if config.population < 4 then
    invalid_arg "Su_opa.attack: population must be at least 4 for DE/rand/1";
  let batcher =
    Batcher.create ~max_queries:config.max_queries ~watchdog:wd ~width:batch
      oracle
  in
  (* Forwarded candidates are built in place; a query builds at most one
     chunk, consumed before it returns, so the slots restart at 0 for
     each. *)
  let slots = Oppsla.Arena.create ~width:batch image in
  let candidate_of cand =
    let row, col = pixel_of image cand in
    {
      Batcher.key = cache_key ~row ~col cand;
      input = (fun () -> Oppsla.Arena.pixel slots ~row ~col (rgb cand));
    }
  in
  (* Candidates are evaluated in batches (the whole initial population,
     then one generation at a time), and success is only declared after a
     batch completes — matching the published implementation, whose
     minimum query count is the population size. *)
  let found = ref None in
  let check_batch () = if !found <> None then raise Done in
  (* Fitness = true-class score of the perturbed image (minimized);
     targeted goals minimize the negated target-class score instead.
     Scores are what the oracle's mode reveals, so under a label-only
     oracle the fitness degenerates to the flip indicator and DE
     selection stops discriminating — the honest decision-based
     degradation (success detection is argmax-based, hence unchanged). *)
  let fitness ~speculate cand =
    let { Batcher.key; input } = candidate_of cand in
    Oppsla.Arena.rewind slots;
    let scores = Batcher.query batcher ~speculate ~input key in
    if
      !found = None
      && Oppsla.Sketch.goal_reached goal ~true_class (Tensor.argmax scores)
    then begin
      let row, col = pixel_of image cand in
      found :=
        Some (nearest_corner_pair ~row ~col cand, build image ~row ~col cand)
    end;
    match goal with
    | Oppsla.Sketch.Untargeted -> Tensor.get_flat scores true_class
    | Oppsla.Sketch.Targeted target -> -.Tensor.get_flat scores target
  in
  let random_candidate () =
    [|
      Prng.float g (float_of_int d1);
      Prng.float g (float_of_int d2);
      clamp 0. 1. (Prng.normal g ~mu:0.5 ~sigma:0.3 ());
      clamp 0. 1. (Prng.normal g ~mu:0.5 ~sigma:0.3 ());
      clamp 0. 1. (Prng.normal g ~mu:0.5 ~sigma:0.3 ());
    |]
  in
  (* DE/rand/1 mutation for slot [i], drawing from an explicit PRNG so
     speculation can run it on a {!Prng.copy} clone without advancing the
     real stream. *)
  let gen_mutant ~g i =
    let pick () =
      let rec draw () =
        let j = Prng.int g config.population in
        if j = i then draw () else j
      in
      draw ()
    in
    let r1 = pick () in
    let r2 =
      let rec draw () =
        let j = pick () in
        if j = r1 then draw () else j
      in
      draw ()
    in
    let r3 =
      let rec draw () =
        let j = pick () in
        if j = r1 || j = r2 then draw () else j
      in
      draw ()
    in
    r1, r2, r3
  in
  Telemetry.Journal.with_default_site "baseline/su_opa" @@ fun () ->
  Telemetry.Watchdog.with_loop wd @@ fun () ->
  (try
    (* The initial population is drawn before any query, so its fitness
       sweep is fully speculable: while evaluating member [i] the batcher
       may prepare members [i+1 ...] directly from the array. *)
    let pop = Array.init config.population (fun _ -> random_candidate ()) in
    let fit =
      Array.mapi
        (fun i cand ->
          let speculate j =
            if i + 1 + j < config.population then
              Some (candidate_of pop.(i + 1 + j))
            else None
          in
          fitness ~speculate cand)
        pop
    in
    check_batch ();
    let build_mutant (r1, r2, r3) =
      let mutant =
        Array.init 5 (fun k ->
            pop.(r1).(k) +. (config.f *. (pop.(r2).(k) -. pop.(r3).(k))))
      in
      mutant.(0) <- clamp 0. (float_of_int d1 -. 1e-6) mutant.(0);
      mutant.(1) <- clamp 0. (float_of_int d2 -. 1e-6) mutant.(1);
      for k = 2 to 4 do
        mutant.(k) <- clamp 0. 1. mutant.(k)
      done;
      mutant
    in
    while true do
      for i = 0 to config.population - 1 do
        let mutant = build_mutant (gen_mutant ~g i) in
        (* Speculate the rest of the generation assuming every pending
           mutant is rejected (population unchanged): draws come from a
           PRNG clone, so the real stream only advances when the real
           mutant is generated.  An acceptance diverges the key stream
           and the batcher rebuilds from true state. *)
        let spec_g = ref None in
        let speculate j =
          if i + 1 + j < config.population then begin
            let g' =
              match !spec_g with
              | Some g' -> g'
              | None ->
                  let g' = Prng.copy g in
                  spec_g := Some g';
                  g'
            in
            Some (candidate_of (build_mutant (gen_mutant ~g:g' (i + 1 + j))))
          end
          else None
        in
        let mf = fitness ~speculate mutant in
        if mf <= fit.(i) then begin
          pop.(i) <- mutant;
          fit.(i) <- mf
        end
      done;
      check_batch ()
    done
  with Done | Batcher.Out_of_queries -> ());
  { Oppsla.Sketch.adversarial = !found; queries = Batcher.spent batcher }
