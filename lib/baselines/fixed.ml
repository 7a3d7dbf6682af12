let program = Oppsla.Condition.const_false_program

let attack ?max_queries ?goal oracle ~image ~true_class =
  Oppsla.Sketch.attack ?max_queries ?goal oracle program ~image ~true_class
