let program = Oppsla.Condition.const_false_program

let attack ?max_queries ?goal ?batch oracle ~image ~true_class =
  Oppsla.Sketch.attack ?max_queries ?goal ?batch oracle program ~image
    ~true_class
