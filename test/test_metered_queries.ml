(* The batcher as an attack's one metered query step.

   Every attacker poses its queries through a [Batcher.t] built with the
   attack's [max_queries] and watchdog slot, so the step's contract is
   pinned here directly, with no attacker around it: the cap is refused
   before any charge or forward pass, no chunk is built past the cap,
   [Batcher.spent] is the charged count, and every served query beats
   the slot with that count. *)

(* A two-class oracle that counts the inputs it scores. *)
let counting_oracle () =
  let forwarded = ref 0 in
  let oracle =
    Oracle.of_fn ~name:"counting" ~num_classes:2 (fun x ->
        incr forwarded;
        let m = Tensor.mean x in
        Tensor.of_array [| 2 |] [| 1. -. m; m |])
  in
  (oracle, forwarded)

let key i = Score_cache.Custom (Printf.sprintf "metered/%d" i)
let input i () = Helpers.flat_image ~size:2 (float_of_int i /. 100.)

(* Speculate the candidates [next + 1], [next + 2], ... and record the
   highest index the batcher asked for. *)
let speculating ~asked next i =
  asked := max !asked i;
  let j = next + 1 + i in
  Some { Batcher.key = key j; input = input j }

let cap_refuses_before_charging () =
  List.iter
    (fun width ->
      let oracle, forwarded = counting_oracle () in
      let b =
        Batcher.create ~max_queries:3 ~watchdog:Helpers.test_watchdog ~width
          oracle
      in
      let asked = ref (-1) in
      for i = 0 to 2 do
        ignore
          (Batcher.query b ~speculate:(speculating ~asked i) ~input:(input i)
             (key i))
      done;
      let msg s = Printf.sprintf "width %d: %s" width s in
      Alcotest.(check int) (msg "spent at the cap") 3 (Batcher.spent b);
      Alcotest.(check int) (msg "charged at the cap") 3 (Oracle.queries oracle);
      let before = !forwarded in
      Alcotest.check_raises (msg "fourth query refused") Batcher.Out_of_queries
        (fun () ->
          ignore
            (Batcher.query b ~speculate:(speculating ~asked 3) ~input:(input 3)
               (key 3)));
      Alcotest.(check int) (msg "refusal spends nothing") 3 (Batcher.spent b);
      Alcotest.(check int)
        (msg "refusal charges nothing")
        3 (Oracle.queries oracle);
      Alcotest.(check int) (msg "refusal forwards nothing") before !forwarded;
      Alcotest.(check bool)
        (msg "no input past the cap forwarded")
        true (!forwarded <= 3))
    [ 1; 4; 16 ]

let chunk_stops_at_cap () =
  let oracle, forwarded = counting_oracle () in
  let b =
    Batcher.create ~max_queries:5 ~watchdog:Helpers.test_watchdog ~width:16
      oracle
  in
  let asked = ref (-1) in
  ignore (Batcher.query b ~speculate:(speculating ~asked 0) ~input:(input 0)
            (key 0));
  Alcotest.(check int) "first chunk speculates up to the cap" 3 !asked;
  Alcotest.(check int) "first chunk forwards the cap" 5 !forwarded;
  ignore (Batcher.query b ~speculate:(speculating ~asked 1) ~input:(input 1)
            (key 1));
  Alcotest.(check int) "buffered answer forwards nothing" 5 !forwarded;
  (* Change course: a miss rebuilds with the 3 queries left. *)
  asked := -1;
  ignore (Batcher.query b ~speculate:(speculating ~asked 50) ~input:(input 50)
            (key 50));
  Alcotest.(check int) "rebuilt chunk speculates up to the cap" 1 !asked;
  Alcotest.(check int) "rebuilt chunk forwards the rest" 8 !forwarded;
  Alcotest.(check int) "spent" 3 (Batcher.spent b);
  Alcotest.(check int) "charged" 3 (Oracle.queries oracle)

let beats_with_spent () =
  let slot = Telemetry.Watchdog.loop "test.metered_queries" in
  let status () =
    List.find
      (fun (s : Telemetry.Watchdog.status) ->
        s.Telemetry.Watchdog.name = "test.metered_queries")
      (Telemetry.Watchdog.snapshot ())
  in
  let beats0 = (status ()).Telemetry.Watchdog.beats in
  let oracle, _ = counting_oracle () in
  let b = Batcher.create ~max_queries:10 ~watchdog:slot ~width:4 oracle in
  let asked = ref (-1) in
  for i = 0 to 5 do
    ignore
      (Batcher.query b ~speculate:(speculating ~asked i) ~input:(input i)
         (key i));
    let s = status () in
    Alcotest.(check int)
      (Printf.sprintf "one beat per query (%d)" i)
      (beats0 + i + 1) s.Telemetry.Watchdog.beats;
    Alcotest.(check (option int))
      (Printf.sprintf "beat carries spent (%d)" i)
      (Some (Batcher.spent b)) s.Telemetry.Watchdog.queries
  done

let suite =
  [
    Alcotest.test_case "cap refuses before any charge" `Quick
      cap_refuses_before_charging;
    Alcotest.test_case "chunks stop at the cap" `Quick chunk_stops_at_cap;
    Alcotest.test_case "each query beats the slot with spent" `Quick
      beats_with_spent;
  ]
