(* CI gate over the committed bench baselines.

     regress BASELINE.json FRESH.json [BASELINE2 FRESH2 ...]
       compare each fresh file against its baseline; exit 1 on any
       regression (or on a gated metric that disappeared).

     regress --smoke FILE [FILE ...]
       gate self-test: each file must pass against itself, and must
       FAIL against a synthetically degraded copy (every gated metric
       pushed past its bound the wrong way, see Regress.degrade).
       Exits 1 if either direction is wrong.  This is what dune runtest
       runs.

   Options: --tolerance T (fractional noise allowance, default 0.10).
   Usage errors exit 124. *)

module R = Evalharness.Regress

(* Gate self-test: every registered baseline is passed (and nothing
   unregistered), each file passes against itself and fails against a
   degraded copy of itself. *)
let smoke ~check ~tolerance files =
  (* Registry coverage: the smoke gate must see every registered
     baseline (and nothing unregistered — new BENCH writers register
     in Evalharness.Regress.registered_baselines).  A missing
     committed file is a named failure, never a silent skip. *)
  let basenames = List.map Filename.basename files in
  List.iter
    (fun reg ->
      check
        (Printf.sprintf "registered baseline %s is committed and gated" reg)
        (List.mem reg basenames))
    R.registered_baselines;
  List.iter
    (fun b ->
      check
        (Printf.sprintf
           "%s is registered in Evalharness.Regress.registered_baselines" b)
        (List.mem b R.registered_baselines))
    basenames;
  List.iter
    (fun file ->
      let metrics = R.flatten (R.parse_file file) in
      let self =
        R.compare_metrics ~tolerance ~baseline:metrics ~fresh:metrics ()
      in
      print_string (R.render ~label:(Filename.basename file ^ " vs self") self);
      check (file ^ " self-comparison") (R.passed self);
      if self.R.checked = 0 then check (file ^ " has gated metrics") false;
      let degraded =
        R.compare_metrics ~tolerance ~baseline:metrics
          ~fresh:(R.degrade ~factor:1.2 metrics)
          ()
      in
      print_string
        (R.render
           ~label:(Filename.basename file ^ " vs degraded copy")
           degraded);
      check (file ^ " degraded copy must regress") (not (R.passed degraded)))
    files

let compare ~check ~tolerance pairs =
  List.iter
    (fun (baseline, fresh) ->
      let r = R.compare_files ~tolerance ~baseline ~fresh () in
      print_string
        (R.render
           ~label:
             (Filename.basename fresh ^ " vs " ^ Filename.basename baseline)
           r);
      check (fresh ^ " vs " ^ baseline) (R.passed r))
    pairs

let run tolerance smoke_mode files =
  let failures = ref 0 in
  let check label ok =
    if not ok then begin
      incr failures;
      Printf.printf "FAIL %s\n" label
    end
  in
  let rec pairs = function
    | b :: f :: rest -> Option.map (List.cons (b, f)) (pairs rest)
    | [] -> Some []
    | [ _ ] -> None
  in
  if tolerance < 0. then `Error (true, "--tolerance must be >= 0")
  else if files = [] then `Error (true, "no files given")
  else if smoke_mode then begin
    smoke ~check ~tolerance files;
    `Ok (if !failures = 0 then 0 else 1)
  end
  else
    match pairs files with
    | None -> `Error (true, "expected BASELINE FRESH pairs")
    | Some ps ->
        compare ~check ~tolerance ps;
        `Ok (if !failures = 0 then 0 else 1)

let () =
  let open Cmdliner in
  let tolerance =
    let doc = "Fractional noise allowance on time leaves." in
    Arg.(
      value
      & opt float R.default_tolerance
      & info [ "tolerance" ] ~docv:"T" ~doc)
  in
  let smoke_mode =
    let doc =
      "Gate self-test: each FILE must pass against itself and fail against \
       a degraded copy, and FILEs must be exactly the registered baselines."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let files = Arg.(value & pos_all file [] & info [] ~docv:"FILE") in
  let cmd =
    Cmd.v
      (Cmd.info "regress" ~doc:"Gate bench results against baselines.")
      Term.(ret (const run $ tolerance $ smoke_mode $ files))
  in
  exit (Cmd.eval' cmd)
