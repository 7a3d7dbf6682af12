(* Heartbeat registry for the long-running loops: the attack sketch, the
   baselines' search loops and the synthesizer's Metropolis-Hastings
   chain each own a named slot and bump it as they make progress.  The
   sampler reads the slots to flag loops that are nominally active but
   have stopped progressing.

   Observation-only by construction: a beat is a handful of atomic
   stores plus one unboxed clock read — no RNG, no metering, no cache
   state and no allocation.  The slots are also the post-mortem
   bundle's record of what each loop was last doing: [info.json] lists
   every slot, so a loop that an exception has already left still
   names its last image, iteration and query count.
   Slots are shared across domains (parallel evaluation runs many
   attacks against one slot); [active] counts concurrent entries and
   the detail fields are last-writer-wins, which is exactly the "what
   is the loop doing right now" semantics a stall verdict wants. *)

type t = {
  name : string;
  active : int Atomic.t;  (* concurrent entries (enter/leave balance) *)
  beats : int Atomic.t;  (* lifetime progress events *)
  last_beat_us : int Atomic.t;
      (* Clock.now_int_us of the latest beat or entry: an immediate, so
         a per-query beat stores no boxed float *)
  image : int Atomic.t;  (* -1 = never reported *)
  iteration : int Atomic.t;
  queries : int Atomic.t;
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 8
let registry_mutex = Mutex.create ()

let loop name =
  Mutex.lock registry_mutex;
  let t =
    match Hashtbl.find_opt registry name with
    | Some t -> t
    | None ->
        let t =
          {
            name;
            active = Atomic.make 0;
            beats = Atomic.make 0;
            last_beat_us = Atomic.make 0;
            image = Atomic.make (-1);
            iteration = Atomic.make (-1);
            queries = Atomic.make (-1);
          }
        in
        Hashtbl.replace registry name t;
        t
  in
  Mutex.unlock registry_mutex;
  t

let stamp t =
  Atomic.set t.last_beat_us (Core.Clock.now_int_us ());
  ignore (Atomic.fetch_and_add t.beats 1)

let beat ?image ?iteration ?queries t =
  (match image with Some i -> Atomic.set t.image i | None -> ());
  (match iteration with Some i -> Atomic.set t.iteration i | None -> ());
  (match queries with Some q -> Atomic.set t.queries q | None -> ());
  stamp t

let beat_queries t queries =
  Atomic.set t.queries queries;
  stamp t

let enter t =
  ignore (Atomic.fetch_and_add t.active 1);
  Atomic.set t.last_beat_us (Core.Clock.now_int_us ())

let leave t = ignore (Atomic.fetch_and_add t.active (-1))

let with_loop t f =
  enter t;
  Fun.protect ~finally:(fun () -> leave t) f

type status = {
  name : string;
  active : int;
  beats : int;
  idle_s : float;  (* seconds since the last beat (or entry) *)
  image : int option;
  iteration : int option;
  queries : int option;
}

let opt_field v = if v < 0 then None else Some v

let snapshot ?now_us () =
  let now = match now_us with Some t -> t | None -> Core.Clock.now_us () in
  Mutex.lock registry_mutex;
  let slots = Hashtbl.fold (fun _ t acc -> t :: acc) registry [] in
  Mutex.unlock registry_mutex;
  slots
  |> List.map (fun (w : t) ->
         {
           name = w.name;
           active = Atomic.get w.active;
           beats = Atomic.get w.beats;
           idle_s =
             Float.max 0.
               ((now -. float_of_int (Atomic.get w.last_beat_us)) /. 1e6);
           image = opt_field (Atomic.get w.image);
           iteration = opt_field (Atomic.get w.iteration);
           queries = opt_field (Atomic.get w.queries);
         })
  |> List.sort (fun a b -> compare a.name b.name)

(* A loop is stalled when someone is inside it but nothing has beaten
   for [stall_after_s] seconds.  Idle (inactive) slots never stall. *)
let stalled ?now_us ~stall_after_s () =
  snapshot ?now_us ()
  |> List.filter (fun s -> s.active > 0 && s.idle_s > stall_after_s)

(* Tests only: forget every slot (handles obtained earlier stay usable
   but are no longer reported). *)
let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.reset registry;
  Mutex.unlock registry_mutex
