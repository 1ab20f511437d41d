open Lemur_nf
open Lemur_util

type traffic_mode = Long_lived | Short_flows

(* Worst-case costs keyed by (kind index, NUMA index, size): the hit
   path hashes three ints, with no string formatting. *)
module Worst_tbl = Hashtbl.Make (struct
  type t = int * int * int

  let equal ((k1, n1, s1) : t) (k2, n2, s2) = k1 = k2 && n1 = n2 && s1 = s2
  let hash = Hashtbl.hash
end)

(* Profiling runs per NF, as in Table 4. *)
let runs = 500

type t = {
  seed : int;
  error : float;
  uniform_cycles : float option;
  lock : Mutex.t;
  cache : (string, float list) Hashtbl.t;
  acl_cache : (Lemur_classifier.Classifier.algo * int * int, float) Hashtbl.t;
  worst : float Worst_tbl.t;
}

let create ?(seed = 0xC0FFEE) ?(error = 0.0) ?(uniform_cycles = None) () =
  if error < 0.0 || error >= 1.0 then invalid_arg "Profiler.create: error";
  {
    seed;
    error;
    uniform_cycles;
    lock = Mutex.create ();
    cache = Hashtbl.create 64;
    acl_cache = Hashtbl.create 16;
    worst = Worst_tbl.create 64;
  }

(* Everything [cycles]/[samples] ever returns is a pure function of
   these three fields and [runs] (the caches are derived state, rebuilt
   on demand), so this string is a sound memoization key for any value
   computed through this registry. [%h] prints floats exactly. *)
let signature t =
  Printf.sprintf "%d/%d/%h/%s" t.seed runs t.error
    (match t.uniform_cycles with
    | None -> "-"
    | Some c -> Printf.sprintf "%h" c)

(* A registry is shared by every domain holding its config, so each
   table is read and written only under [t.lock]. The value is computed
   outside the lock: a miss never blocks other domains' hits, and a
   nested miss ([worst_case] filling [samples]) cannot self-deadlock.
   Two domains missing on one key both compute it and the first insert
   wins; values are pure, so both copies are equal. *)
let memoized t find add key compute =
  match Mutex.protect t.lock (fun () -> find key) with
  | Some v -> v
  | None ->
      let v = compute () in
      Mutex.protect t.lock (fun () ->
          match find key with
          | Some first -> first
          | None ->
              add key v;
              v)

let mode_index = function Long_lived -> 0 | Short_flows -> 1
let numa_index = function Datasheet.Same -> 0 | Datasheet.Diff -> 1

let cache_key kind numa size mode =
  Printf.sprintf "%d/%d/%d/%d" (Kind.index kind) (numa_index numa) size
    (mode_index mode)

(* Short-lived flow churn stresses stateful NFs: slightly higher mean
   (cold tables, allocations) and a wider spread. *)
let mode_adjust kind mode (cost : Datasheet.cost) =
  match mode with
  | Long_lived -> cost
  | Short_flows ->
      if Kind.stateful kind then
        {
          Datasheet.mean = cost.Datasheet.mean *. 1.012;
          min = cost.Datasheet.min;
          max = cost.Datasheet.max *. 1.018;
        }
      else cost

let samples t kind numa ?size mode =
  let size =
    match (size, Datasheet.reference_size kind) with
    | Some s, _ -> s
    | None, Some r -> r
    | None, None -> 0
  in
  memoized t (Hashtbl.find_opt t.cache) (Hashtbl.replace t.cache)
    (cache_key kind numa size mode) (fun () ->
      let cost =
        mode_adjust kind mode (Datasheet.cycle_cost_sized kind numa ~size)
      in
      let prng =
        Prng.create
          ~seed:
            (t.seed
            + (1_000_003 * Kind.index kind)
            + (7919 * numa_index numa)
            + (104729 * mode_index mode)
            + size)
      in
      let sigma = (cost.Datasheet.max -. cost.Datasheet.min) /. 5.0 in
      List.init runs (fun _ ->
          Prng.truncated_gaussian prng ~mu:cost.Datasheet.mean ~sigma
            ~lo:cost.Datasheet.min ~hi:cost.Datasheet.max))

let summary t kind numa ?size mode = Stats.summarize (samples t kind numa ?size mode)

let worst_case t kind numa ~size =
  match t.uniform_cycles with
  | Some c -> c
  | None ->
      memoized t (Worst_tbl.find_opt t.worst) (Worst_tbl.replace t.worst)
        (Kind.index kind, numa_index numa, size) (fun () ->
          let worst_of mode =
            List.fold_left Float.max neg_infinity
              (samples t kind numa ~size mode)
          in
          let worst = Float.max (worst_of Long_lived) (worst_of Short_flows) in
          worst *. (1.0 -. t.error))

(* Algorithm-aware ACL profiling: build the canonical ruleset for this
   size, replay the dataplane's 40-flow header corpus through the
   classifier, and report the worst modeled lookup — the same
   conservative stance as [worst_case], honoring the [error] and
   [uniform_cycles] ablations. The corpus, rulesets and cost model are
   all deterministic, so this stays a pure function of the registry's
   signature and the arguments (memoized per registry). *)
let dataplane_flows = 40

let acl_cycles t ~algo ~size numa =
  match t.uniform_cycles with
  | Some c -> c
  | None ->
      memoized t (Hashtbl.find_opt t.acl_cache) (Hashtbl.replace t.acl_cache)
        (algo, size, numa_index numa) (fun () ->
          let rs = Lemur_classifier.Ruleset.generate ~size () in
          let cls = Lemur_classifier.Classifier.build algo rs in
          let headers =
            Lemur_classifier.Ruleset.headers rs ~flows:dataplane_flows
          in
          let worst = Lemur_classifier.Classifier.worst_cycles cls headers in
          worst *. Datasheet.numa_factor numa *. (1.0 -. t.error))

let cycles t instance numa =
  let kind = instance.Instance.kind in
  let size =
    match Instance.state_size instance with
    | Some s -> s
    | None -> Option.value (Datasheet.reference_size kind) ~default:0
  in
  worst_case t kind numa ~size

let cycles_kind t kind numa =
  let size = Option.value (Datasheet.reference_size kind) ~default:0 in
  worst_case t kind numa ~size

let size_ladder kind =
  match Datasheet.reference_size kind with
  | None -> []
  | Some r -> List.map (fun f -> max 1 (r * f / 4)) [ 1; 2; 3; 4; 6; 8 ]

let fit_size_model t kind numa =
  match Datasheet.size_slope kind with
  | None -> None
  | Some _ ->
      let points =
        List.map
          (fun size ->
            let s = summary t kind numa ~size Long_lived in
            (float_of_int size, s.Stats.mean))
          (size_ladder kind)
      in
      Some (Stats.linear_fit points)

let predict_cycles t kind numa ~size =
  Option.map
    (fun (slope, intercept) -> (slope *. float_of_int size) +. intercept)
    (fit_size_model t kind numa)

let table4 t =
  List.concat_map
    (fun (kind, size) ->
      let label =
        match size with
        | None -> Kind.name kind
        | Some s -> Printf.sprintf "%s (%d)" (Kind.name kind) s
      in
      List.map
        (fun numa ->
          let numa_label =
            match numa with Datasheet.Same -> "Same" | Datasheet.Diff -> "Diff"
          in
          (label, numa_label, summary t kind numa ?size Long_lived))
        [ Datasheet.Same; Datasheet.Diff ])
    Datasheet.table4_rows

let stability_bound t =
  let bound kind numa =
    let s = summary t kind numa Long_lived in
    (s.Stats.max -. s.Stats.mean) /. s.Stats.mean
  in
  List.fold_left
    (fun acc kind ->
      List.fold_left
        (fun acc numa -> Float.max acc (bound kind numa))
        acc
        [ Datasheet.Same; Datasheet.Diff ])
    0.0 Kind.all
