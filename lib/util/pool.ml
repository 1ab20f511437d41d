type job_error = { job_index : int; message : string; backtrace : string }

let error_to_string e =
  Printf.sprintf "item %d: %s" e.job_index e.message

(* Worker domains flag themselves so a nested [map] (e.g. the Optimal
   strategy parallelizing plan evaluation from inside a fuzz worker)
   degrades to the inline sequential path instead of deadlocking on the
   pool it is running on. The submitting domain sets the flag while it
   participates in its own run, for the same reason. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let hard_cap = 64
let clamp n = max 1 (min hard_cap n)
let recommended_domains () = clamp (Domain.recommended_domain_count ())
let default_domains = ref 1
let set_default n = default_domains := clamp n
let get_default () = !default_domains

let capture_error i exn =
  {
    job_index = i;
    message = Printexc.to_string exn;
    backtrace = Printexc.get_backtrace ();
  }

let seq_map f xs =
  List.mapi (fun i x -> try Ok (f x) with exn -> capture_error i exn |> Result.error) xs

(* ------------------------------------------------------------------ *)
(* A [run] is one [map]'s worth of work: an array of item thunks that
   executors claim by atomically bumping [next] in fixed-size chunks —
   self-scheduling work stealing. A straggler holds at most one chunk
   while every other executor keeps draining the rest, so one 100x-cost
   item first or last in the corpus no longer serializes the run.
   Results land in per-index slots, which keeps the merged output (and
   therefore every digest downstream) byte-identical at any [-j].

   [tickets] caps how many pool workers may join: a [map ~domains:k]
   on a larger resident pool admits only [k - 1] of them (the
   submitting domain is the k-th executor), so shrinking [-j] between
   calls reuses the pool instead of churning domains. *)

type run = {
  run_id : int;
  n : int;
  chunk : int;
  exec : int -> unit;  (** run item [i]; never raises *)
  next : int Atomic.t;
  tickets : int Atomic.t;
  completed : int Atomic.t;
  latch_mu : Mutex.t;
  latch_done : Condition.t;
}

let participate run =
  let rec claim () =
    let start = Atomic.fetch_and_add run.next run.chunk in
    if start < run.n then begin
      let stop = min run.n (start + run.chunk) in
      for i = start to stop - 1 do
        run.exec i
      done;
      let batch = stop - start in
      (* The atomic add publishes this chunk's result writes; the mutex
         around the signal pairs with the submitter's wait loop so the
         final increment cannot slip between its check and its sleep. *)
      if Atomic.fetch_and_add run.completed batch + batch = run.n then begin
        Mutex.lock run.latch_mu;
        Condition.signal run.latch_done;
        Mutex.unlock run.latch_mu
      end;
      claim ()
    end
  in
  claim ()

(* ------------------------------------------------------------------ *)
(* The pool: resident worker domains waiting for the next published
   run. Workers remember the last run they joined, so re-checking the
   same publication never double-joins; a worker that arrives after a
   run's items are exhausted claims nothing and goes back to sleep.
   The pool only ever grows — a larger [~domains] spawns the missing
   workers, a smaller one is handled entirely by [tickets]. *)

type pool = {
  mu : Mutex.t;
  wake : Condition.t;
  mutable current : run option;
  mutable workers : unit Domain.t list;  (** newest first *)
}

let worker_loop pool () =
  Domain.DLS.set in_worker true;
  let last = ref 0 in
  let rec loop () =
    Mutex.lock pool.mu;
    let rec wait () =
      match pool.current with
      | Some run when run.run_id <> !last -> run
      | _ ->
          Condition.wait pool.wake pool.mu;
          wait ()
    in
    let run = wait () in
    Mutex.unlock pool.mu;
    last := run.run_id;
    if Atomic.fetch_and_add run.tickets (-1) > 0 then participate run;
    loop ()
  in
  loop ()

let global : pool option ref = ref None

let pool_size () =
  match !global with None -> 0 | Some p -> List.length p.workers

(* Grow the resident pool to at least [want] workers. *)
let ensure_pool want =
  let p =
    match !global with
    | Some p -> p
    | None ->
        let p =
          {
            mu = Mutex.create ();
            wake = Condition.create ();
            current = None;
            workers = [];
          }
        in
        global := Some p;
        p
  in
  let have = List.length p.workers in
  if have < want then
    for _ = have + 1 to want do
      p.workers <- Domain.spawn (worker_loop p) :: p.workers
    done;
  p

let run_counter = ref 0

let pool_map ~executors f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let results = Array.make n None in
  let exec i =
    let r = try Ok (f items.(i)) with exn -> Error (capture_error i exn) in
    results.(i) <- Some r
  in
  let p = ensure_pool (executors - 1) in
  incr run_counter;
  let run =
    {
      run_id = !run_counter;
      n;
      (* Small chunks keep the claim granularity fine enough that a
         skewed item cannot drag neighbours along with it; the floor of
         one claim per item is what bounds a straggler's share. *)
      chunk = max 1 (n / (16 * executors));
      exec;
      next = Atomic.make 0;
      tickets = Atomic.make (executors - 1);
      completed = Atomic.make 0;
      latch_mu = Mutex.create ();
      latch_done = Condition.create ();
    }
  in
  Mutex.lock p.mu;
  p.current <- Some run;
  Condition.broadcast p.wake;
  Mutex.unlock p.mu;
  (* The submitting domain is an executor too — flagged as a worker so
     nested maps inside [f] stay sequential instead of re-entering the
     pool. *)
  Domain.DLS.set in_worker true;
  participate run;
  Domain.DLS.set in_worker false;
  Mutex.lock run.latch_mu;
  while Atomic.get run.completed < n do
    Condition.wait run.latch_done run.latch_mu
  done;
  Mutex.unlock run.latch_mu;
  (* Every slot was filled before the latch opened, and the completion
     atomics order those writes before these reads. *)
  Array.to_list (Array.map Option.get results)

let map ?domains f xs =
  let domains = clamp (Option.value domains ~default:(get_default ())) in
  if domains <= 1 || List.compare_length_with xs 1 <= 0 || Domain.DLS.get in_worker
  then seq_map f xs
  else pool_map ~executors:domains f xs

let all results =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | Ok x :: rest -> go (x :: acc) rest
    | Error e :: _ -> Error e
  in
  go [] results
