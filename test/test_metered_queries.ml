(* The batcher as an attack's one metered query step.

   Every attacker poses its queries through a [Batcher.t] built with the
   attack's [max_queries] and watchdog slot, so the step's contract is
   pinned here directly, with no attacker around it: the cap is refused
   before any charge or forward pass, [Batcher.spent] is the charged
   count, and every served query beats the slot with that count. *)

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

let cap_refuses_before_charging () =
  let oracle, forwarded = counting_oracle () in
  let b =
    Batcher.create ~max_queries:3 ~watchdog:Helpers.test_watchdog oracle
  in
  for i = 0 to 2 do
    ignore (Batcher.query b ~input:(input i) (key i))
  done;
  Alcotest.(check int) "spent at the cap" 3 (Batcher.spent b);
  Alcotest.(check int) "charged at the cap" 3 (Oracle.queries oracle);
  Alcotest.(check int) "one forward per query" 3 !forwarded;
  Alcotest.check_raises "fourth query refused" Batcher.Out_of_queries
    (fun () -> ignore (Batcher.query b ~input:(input 3) (key 3)));
  Alcotest.(check int) "refusal spends nothing" 3 (Batcher.spent b);
  Alcotest.(check int) "refusal charges nothing" 3 (Oracle.queries oracle);
  Alcotest.(check int) "refusal forwards nothing" 3 !forwarded

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
  let b = Batcher.create ~max_queries:10 ~watchdog:slot oracle in
  for i = 0 to 5 do
    ignore (Batcher.query b ~input:(input i) (key i));
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
    Alcotest.test_case "each query beats the slot with spent" `Quick
      beats_with_spent;
  ]
