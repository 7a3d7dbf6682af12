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

   Options: --tolerance T (fractional noise allowance, default 0.10). *)

let usage () =
  prerr_endline
    "usage: regress [--tolerance T] BASELINE FRESH [BASELINE2 FRESH2 ...]\n\
    \       regress [--tolerance T] --smoke FILE [FILE ...]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let tolerance =
    match Telemetry.Obs.find_flag args ~flag:"--tolerance" with
    | None -> Evalharness.Regress.default_tolerance
    | Some t -> (
        match float_of_string_opt t with
        | Some v when v >= 0. -> v
        | _ ->
            prerr_endline ("regress: bad --tolerance " ^ t);
            exit 2)
  in
  let args = Telemetry.Obs.strip_flags args ~flags:[ "--tolerance" ] in
  let smoke = List.mem "--smoke" args in
  let files = List.filter (fun a -> a <> "--smoke") args in
  let failures = ref 0 in
  let check label ok = if not ok then (incr failures; Printf.printf "FAIL %s\n" label) in
  if smoke then begin
    if files = [] then usage ();
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
      Evalharness.Regress.registered_baselines;
    List.iter
      (fun b ->
        check
          (Printf.sprintf
             "%s is registered in Evalharness.Regress.registered_baselines" b)
          (List.mem b Evalharness.Regress.registered_baselines))
      basenames;
    List.iter
      (fun file ->
        let metrics =
          Evalharness.Regress.flatten (Evalharness.Regress.parse_file file)
        in
        let self =
          Evalharness.Regress.compare_metrics ~tolerance ~baseline:metrics
            ~fresh:metrics ()
        in
        print_string
          (Evalharness.Regress.render
             ~label:(Filename.basename file ^ " vs self") self);
        check (file ^ " self-comparison") (Evalharness.Regress.passed self);
        if self.Evalharness.Regress.checked = 0 then
          check (file ^ " has gated metrics") false;
        let degraded =
          Evalharness.Regress.compare_metrics ~tolerance ~baseline:metrics
            ~fresh:(Evalharness.Regress.degrade ~factor:1.2 metrics)
            ()
        in
        print_string
          (Evalharness.Regress.render
             ~label:(Filename.basename file ^ " vs degraded copy")
             degraded);
        check
          (file ^ " degraded copy must regress")
          (not (Evalharness.Regress.passed degraded)))
      files
  end
  else begin
    let rec pairs = function
      | [] -> []
      | [ _ ] -> usage ()
      | b :: f :: rest -> (b, f) :: pairs rest
    in
    let ps = pairs files in
    if ps = [] then usage ();
    List.iter
      (fun (baseline, fresh) ->
        let r =
          Evalharness.Regress.compare_files ~tolerance ~baseline ~fresh ()
        in
        print_string
          (Evalharness.Regress.render
             ~label:
               (Filename.basename fresh ^ " vs " ^ Filename.basename baseline)
             r);
        check (fresh ^ " vs " ^ baseline) (Evalharness.Regress.passed r))
      ps
  end;
  exit (if !failures = 0 then 0 else 1)
