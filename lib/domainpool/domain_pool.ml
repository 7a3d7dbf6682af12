let domain_count () = min 8 (Domain.recommended_domain_count ())

(* Registry mirrors of the per-pool counters: the consolidated telemetry
   view ([--metrics FILE], Report's Telemetry section) sums scheduling
   activity across every pool the process created. *)
let m_jobs = Telemetry.Metrics.counter "pool.jobs"
let m_tasks = Telemetry.Metrics.counter "pool.tasks"
let m_steals = Telemetry.Metrics.counter "pool.steals"
let g_domains = Telemetry.Metrics.gauge "pool.domains"

let h_job_seconds =
  Telemetry.Metrics.histogram ~buckets:Telemetry.Metrics.time_buckets
    "pool.job_seconds"

let h_job_tasks = Telemetry.Metrics.histogram "pool.job_tasks"

(* Tasks submitted by the job currently running (0 when the pool is
   idle) — the queue-depth signal the background sampler snapshots. *)
let g_job_inflight = Telemetry.Metrics.gauge "pool.job_inflight"

module Pool = struct
  type stats = {
    domains : int;
    jobs : int;
    tasks : int;
    steals : int;
    busy_seconds : float;
  }

  (* A job is published type-erased: [participate] owns the job's atomic
     cursor, so any participant (worker or caller) can run it to
     completion.  [gen] distinguishes jobs so a worker that just finished
     one does not re-enter it while waiting for the next. *)
  type job = { gen : int; participate : unit -> unit }

  type t = {
    total : int;  (* participants per map call, caller included *)
    mutable workers : unit Domain.t array;
    m : Mutex.t;
    work : Condition.t;
    mutable current : job option;
    mutable next_gen : int;
    mutable stop : bool;
    tasks : int Atomic.t;
    steals : int Atomic.t;
    mutable jobs_served : int;
    mutable busy : float;
    in_flight : bool Atomic.t;
        (* true while a parallel job is published; a second [map] fails
           loudly instead of deadlocking or clobbering [current]. *)
  }

  let rec worker_loop t last_gen =
    Mutex.lock t.m;
    let rec await () =
      if t.stop then None
      else
        match t.current with
        | Some j when j.gen <> last_gen -> Some j
        | _ ->
            Condition.wait t.work t.m;
            await ()
    in
    let j = await () in
    Mutex.unlock t.m;
    match j with
    | None -> ()
    | Some j ->
        j.participate ();
        worker_loop t j.gen

  let create ?domains () =
    let total =
      match domains with Some d -> max 1 d | None -> domain_count ()
    in
    let t =
      {
        total;
        workers = [||];
        m = Mutex.create ();
        work = Condition.create ();
        current = None;
        next_gen = 0;
        stop = false;
        tasks = Atomic.make 0;
        steals = Atomic.make 0;
        jobs_served = 0;
        busy = 0.;
        in_flight = Atomic.make false;
      }
    in
    t.workers <-
      Array.init (total - 1) (fun _ ->
          Domain.spawn (fun () -> worker_loop t (-1)));
    Telemetry.Gauge.set g_domains (float_of_int total);
    t

  let size t = t.total

  let shutdown t =
    Mutex.lock t.m;
    if t.stop then Mutex.unlock t.m
    else begin
      t.stop <- true;
      Condition.broadcast t.work;
      Mutex.unlock t.m;
      Array.iter Domain.join t.workers;
      t.workers <- [||]
    end

  let with_pool ?domains f =
    let t = create ?domains () in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

  let stats t =
    Mutex.lock t.m;
    let s =
      {
        domains = t.total;
        jobs = t.jobs_served;
        tasks = Atomic.get t.tasks;
        steals = Atomic.get t.steals;
        busy_seconds = t.busy;
      }
    in
    Mutex.unlock t.m;
    s

  let finish_job t t0 n =
    let dt = Unix.gettimeofday () -. t0 in
    Mutex.lock t.m;
    t.current <- None;
    t.jobs_served <- t.jobs_served + 1;
    t.busy <- t.busy +. dt;
    Atomic.set t.tasks (Atomic.get t.tasks + n);
    Mutex.unlock t.m;
    Telemetry.Counter.incr m_jobs;
    Telemetry.Counter.add m_tasks n;
    Telemetry.Gauge.set g_job_inflight 0.;
    Telemetry.Histogram.observe h_job_seconds dt;
    Telemetry.Histogram.observe h_job_tasks (float_of_int n)

  let map t f xs =
    if t.stop then invalid_arg "Domain_pool.Pool.map: pool is shut down";
    Telemetry.Trace.span "pool.map" ~cat:"pool"
      ~args:(fun () ->
        [
          ("tasks", Telemetry.Trace.Int (Array.length xs));
          ("domains", Telemetry.Trace.Int t.total);
        ])
    @@ fun () ->
    let n = Array.length xs in
    if n = 0 then [||]
    else if t.total = 1 || n = 1 then begin
      let t0 = Unix.gettimeofday () in
      Telemetry.Gauge.set g_job_inflight (float_of_int n);
      (* Inline fast path: an exception from [f] is re-raised with its
         backtrace once the job is finished, and a raise on item [i]
         abandons items after [i] just like the parallel path does.  No
         [in_flight] claim: the inline path is trivially re-entrant. *)
      match Array.map f xs with
      | r ->
          finish_job t t0 n;
          r
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          finish_job t t0 n;
          Printexc.raise_with_backtrace e bt
    end
    else if not (Atomic.compare_and_set t.in_flight false true) then
      invalid_arg
        "Domain_pool.Pool.map: pool is already running a job (map is not \
         re-entrant)"
    else
      Fun.protect ~finally:(fun () -> Atomic.set t.in_flight false)
      @@ fun () ->
      let t0 = Unix.gettimeofday () in
      Telemetry.Gauge.set g_job_inflight (float_of_int n);
      let results = Array.make n None in
      let next = Atomic.make 0 in
      let completed = Atomic.make 0 in
      let failure = Atomic.make None in
      let fin_m = Mutex.create () and fin_c = Condition.create () in
      let caller = Domain.self () in
      (* Chunked self-scheduling: small enough chunks that stragglers
         balance, large enough to amortize the atomic claim. *)
      let chunk = max 1 (n / (t.total * 8)) in
      let participate () =
        let stealing = Domain.self () <> caller in
        let rec loop () =
          let start = Atomic.fetch_and_add next chunk in
          if start < n then begin
            let stop_ = min n (start + chunk) in
            for i = start to stop_ - 1 do
              if Atomic.get failure = None then (
                match f xs.(i) with
                | v ->
                    results.(i) <- Some v;
                    if stealing then begin
                      Atomic.incr t.steals;
                      Telemetry.Counter.incr m_steals
                    end
                | exception e ->
                    let bt = Printexc.get_raw_backtrace () in
                    ignore (Atomic.compare_and_set failure None (Some (e, bt))))
            done;
            (* Count claimed indices even when a failure abandoned them:
               completion means "no item is still running", which is what
               the caller must wait for before re-raising. *)
            let c = stop_ - start + Atomic.fetch_and_add completed (stop_ - start) in
            if c >= n then begin
              Mutex.lock fin_m;
              Condition.broadcast fin_c;
              Mutex.unlock fin_m
            end;
            loop ()
          end
        in
        loop ()
      in
      Mutex.lock t.m;
      let gen = t.next_gen in
      t.next_gen <- gen + 1;
      t.current <- Some { gen; participate };
      Condition.broadcast t.work;
      Mutex.unlock t.m;
      participate ();
      Mutex.lock fin_m;
      while Atomic.get completed < n do
        Condition.wait fin_c fin_m
      done;
      Mutex.unlock fin_m;
      finish_job t t0 n;
      match Atomic.get failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None ->
          Array.map
            (function
              | Some v -> v
              | None ->
                  (* Unreachable: every index was claimed and either ran
                     (Some) or was abandoned after a failure, in which
                     case we re-raised above. *)
                  assert false)
            results
end

