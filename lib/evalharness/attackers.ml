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

let oppsla ~programs =
  {
    name = "OPPSLA";
    run =
      (fun _g oracle ~goal ~max_queries ~batch ~image ~true_class ->
        if true_class < 0 || true_class >= Array.length programs then
          invalid_arg
            (Printf.sprintf "Attackers.oppsla: no program for class %d"
               true_class);
        Oppsla.Sketch.attack ~max_queries ~goal ~batch oracle
          programs.(true_class) ~image ~true_class);
  }

let oppsla_single program =
  {
    name = "OPPSLA(single)";
    run =
      (fun _g oracle ~goal ~max_queries ~batch ~image ~true_class ->
        Oppsla.Sketch.attack ~max_queries ~goal ~batch oracle program ~image
          ~true_class);
  }

let sketch_false =
  {
    name = "Sketch+False";
    run =
      (fun _g oracle ~goal ~max_queries ~batch ~image ~true_class ->
        Baselines.Fixed.attack ~max_queries ~goal ~batch oracle ~image
          ~true_class);
  }

let sparse_rs =
  {
    name = "Sparse-RS";
    run =
      (fun g oracle ~goal ~max_queries ~batch ~image ~true_class ->
        let config = Baselines.Sparse_rs.default_config ~max_queries in
        Baselines.Sparse_rs.attack ~config ~batch ~goal g oracle ~image
          ~true_class);
  }

(* Multi-pixel and patch results are reported through the same
   single-pair result type the runner consumes (success flag + query
   count). *)
let sparse_rs_space space =
  {
    name = Printf.sprintf "Sparse-RS(%s)" (Oppsla.Space.to_string space);
    run =
      (fun g oracle ~goal ~max_queries ~batch ~image ~true_class ->
        let config = Baselines.Sparse_rs.default_config ~max_queries in
        Baselines.Sparse_rs.to_result
          (Baselines.Sparse_rs.attack_space ~config ~batch ~goal ~space g
             oracle ~image ~true_class));
  }

let su_opa ?(population = 400) () =
  {
    name = "SuOPA";
    run =
      (fun g oracle ~goal ~max_queries ~batch ~image ~true_class ->
        let config =
          { (Baselines.Su_opa.default_config ~max_queries) with population }
        in
        Baselines.Su_opa.attack ~config ~batch ~goal g oracle ~image
          ~true_class);
  }

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
