type t = {
  name : string;
  run :
    Prng.t ->
    Oracle.t ->
    goal:Oppsla.Sketch.goal ->
    max_queries:int ->
    batch:int ->
    image:Tensor.t ->
    true_class:int ->
    Oppsla.Sketch.result;
}

(* Every attacker poses one candidate per query; [run]'s [batch] stays
   for the repository benchmark and is checked where it enters. *)
let attacker name run =
  {
    name;
    run =
      (fun g oracle ~goal ~max_queries ~batch ~image ~true_class ->
        Oppsla.Sketch.require_default_batch "Attackers.run" batch;
        run g oracle ~goal ~max_queries ~image ~true_class);
  }

let oppsla ~programs =
  attacker "OPPSLA" (fun _g oracle ~goal ~max_queries ~image ~true_class ->
      if true_class < 0 || true_class >= Array.length programs then
        invalid_arg
          (Printf.sprintf "Attackers.oppsla: no program for class %d"
             true_class);
      Oppsla.Sketch.attack ~max_queries ~goal oracle programs.(true_class)
        ~image ~true_class)

let oppsla_single program =
  attacker "OPPSLA(single)"
    (fun _g oracle ~goal ~max_queries ~image ~true_class ->
      Oppsla.Sketch.attack ~max_queries ~goal oracle program ~image
        ~true_class)

let sketch_false =
  attacker "Sketch+False"
    (fun _g oracle ~goal ~max_queries ~image ~true_class ->
      Baselines.Fixed.attack ~max_queries ~goal oracle ~image ~true_class)

let sparse_rs =
  attacker "Sparse-RS" (fun g oracle ~goal ~max_queries ~image ~true_class ->
      let config = Baselines.Sparse_rs.default_config ~max_queries in
      Baselines.Sparse_rs.attack ~config ~goal g oracle ~image ~true_class)

(* Multi-pixel and patch results are reported through the same
   single-pair result type the runner consumes (success flag + query
   count). *)
let sparse_rs_space space =
  attacker
    (Printf.sprintf "Sparse-RS(%s)" (Oppsla.Space.to_string space))
    (fun g oracle ~goal ~max_queries ~image ~true_class ->
      let config = Baselines.Sparse_rs.default_config ~max_queries in
      Baselines.Sparse_rs.to_result
        (Baselines.Sparse_rs.attack_space ~config ~goal ~space g oracle ~image
           ~true_class))

let su_opa ?(population = 400) () =
  attacker "SuOPA" (fun g oracle ~goal ~max_queries ~image ~true_class ->
      let config =
        { (Baselines.Su_opa.default_config ~max_queries) with population }
      in
      Baselines.Su_opa.attack ~config ~goal g oracle ~image ~true_class)

(* The decision-based variant of any attacker: flip the per-image oracle
   to label-only observation before attacking.  The oracle handle is
   fresh per image (the runner's contract), so the flip never leaks into
   other attacks. *)
let decision t =
  {
    name = t.name ^ "/decision";
    run =
      (fun g oracle ~goal ~max_queries ~batch ~image ~true_class ->
        Oracle.set_mode oracle Oracle.Decision;
        t.run g oracle ~goal ~max_queries ~batch ~image ~true_class);
  }
