module Telemetry = Lemur_telemetry.Telemetry
module Counter = Lemur_telemetry.Counter
module Histogram = Lemur_telemetry.Histogram

type algo = Linear_scan | Tuple_space | Computed

let all_algos = [ Linear_scan; Tuple_space; Computed ]

let algo_name = function
  | Linear_scan -> "linear"
  | Tuple_space -> "tss"
  | Computed -> "nuevo"

(* The cost model (cycles per unit of work; docs/CLASSIFIER.md).
   Constants are calibrated so linear scan at the ACL reference size
   (1024 rules) lands in the same few-thousand-cycle regime as the
   datasheet's measured ACL cost, and so the computed index's per-probe
   work resembles NuevoMatchUP's reported constants. *)
let c_linear_base = 20.0
let c_linear_rule = 9.0
let c_tss_base = 25.0
let c_tss_probe = 30.0
let c_tss_entry = 12.0
let c_model_eval = 12.0 (* per RMI stage evaluated: 2 per iSet probe *)
let c_search_step = 6.0
let c_validate = 14.0

type outcome = {
  o_rule : Rule.t option;
  o_cycles : float;
  o_depth : int;
  o_remainder : [ `Hit | `Miss | `Skipped ];
}

type impl = L of Linear.t | T of Tss.t | N of Nuevo.t

type t = {
  cl_algo : algo;
  cl_ruleset : Ruleset.t;
  cl_impl : impl;
  tm_pkts : Counter.t;
  tm_rem_hits : Counter.t;
  tm_rem_misses : Counter.t;
  tm_depth : Histogram.t;
}

(* Probe depths are small integers; the default latency bounds start at
   100, so give the histogram its own scale. *)
let depth_bounds =
  Array.of_list
    (List.map float_of_int [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 1024; 8192 ])

let build algo rs =
  let tm = Telemetry.current () in
  let name = algo_name algo in
  {
    cl_algo = algo;
    cl_ruleset = rs;
    cl_impl =
      (match algo with
      | Linear_scan -> L (Linear.build rs)
      | Tuple_space -> T (Tss.build (Ruleset.rules rs))
      | Computed -> N (Nuevo.build rs));
    tm_pkts = Telemetry.counter tm (Printf.sprintf "classifier.%s.pkts" name);
    tm_rem_hits = Telemetry.counter tm "classifier.remainder.hits";
    tm_rem_misses = Telemetry.counter tm "classifier.remainder.misses";
    tm_depth =
      Telemetry.histogram tm ~bounds:depth_bounds
        (Printf.sprintf "classifier.%s.probe_depth" name);
  }

let algo t = t.cl_algo
let ruleset t = t.cl_ruleset

let cost t h =
  match t.cl_impl with
  | L l ->
      let rule, scanned = Linear.classify l h in
      {
        o_rule = rule;
        o_cycles = c_linear_base +. (c_linear_rule *. float_of_int scanned);
        o_depth = scanned;
        o_remainder = `Skipped;
      }
  | T ts ->
      let rule, probes, entries = Tss.classify ts h in
      {
        o_rule = rule;
        o_cycles =
          c_tss_base
          +. (c_tss_probe *. float_of_int probes)
          +. (c_tss_entry *. float_of_int entries);
        o_depth = probes;
        o_remainder = `Skipped;
      }
  | N nv ->
      let o = Nuevo.classify nv h in
      let model_cycles =
        (* two model stages per iSet probe *)
        c_model_eval *. 2.0 *. float_of_int (Nuevo.isets nv)
        +. (c_search_step *. float_of_int o.Nuevo.search_steps)
        +. (c_validate *. float_of_int o.Nuevo.validations)
      in
      let rem_cycles =
        if o.Nuevo.remainder_probed then
          c_tss_base
          +. (c_tss_probe *. float_of_int (Nuevo.remainder_tuples nv))
          +. (c_tss_entry *. float_of_int o.Nuevo.remainder_entries)
        else 0.0
      in
      {
        o_rule = o.Nuevo.rule;
        o_cycles = model_cycles +. rem_cycles;
        o_depth = o.Nuevo.search_steps + o.Nuevo.validations;
        o_remainder =
          (if not o.Nuevo.remainder_probed then `Skipped
           else if o.Nuevo.remainder_won then `Hit
           else `Miss);
      }

let s_linear = Atomic.make 0
let s_tss = Atomic.make 0
let s_computed = Atomic.make 0
let s_rem_hits = Atomic.make 0
let s_rem_misses = Atomic.make 0

type stats = {
  linear_lookups : int;
  tss_lookups : int;
  computed_lookups : int;
  remainder_hits : int;
  remainder_misses : int;
}

let stats () =
  {
    linear_lookups = Atomic.get s_linear;
    tss_lookups = Atomic.get s_tss;
    computed_lookups = Atomic.get s_computed;
    remainder_hits = Atomic.get s_rem_hits;
    remainder_misses = Atomic.get s_rem_misses;
  }

let classify t h =
  let o = cost t h in
  (match t.cl_algo with
  | Linear_scan -> Atomic.incr s_linear
  | Tuple_space -> Atomic.incr s_tss
  | Computed -> Atomic.incr s_computed);
  Counter.incr t.tm_pkts;
  Histogram.record t.tm_depth (float_of_int (max 1 o.o_depth));
  (match o.o_remainder with
  | `Hit ->
      Atomic.incr s_rem_hits;
      Counter.incr t.tm_rem_hits
  | `Miss ->
      Atomic.incr s_rem_misses;
      Counter.incr t.tm_rem_misses
  | `Skipped -> ());
  o

let mean_cycles t hs =
  let n = Array.length hs in
  if n = 0 then 0.0
  else
    Array.fold_left (fun acc h -> acc +. (cost t h).o_cycles) 0.0 hs
    /. float_of_int n

let worst_cycles t hs =
  Array.fold_left (fun acc h -> Float.max acc (cost t h).o_cycles) 0.0 hs

let describe t =
  match t.cl_impl with
  | L _ -> Printf.sprintf "linear scan over %d rule(s)" (Ruleset.size t.cl_ruleset)
  | T ts ->
      Printf.sprintf "TSS: %d rule(s) in %d tuple(s)"
        (Ruleset.size t.cl_ruleset) (Tss.tuples ts)
  | N nv ->
      Printf.sprintf
        "computed index: %d rule(s), %d iSet(s) %s, remainder %d, model err <= %d"
        (Ruleset.size t.cl_ruleset) (Nuevo.isets nv)
        (Printf.sprintf "[%s]"
           (String.concat ";" (List.map string_of_int (Nuevo.iset_sizes nv))))
        (Array.length (Nuevo.remainder_rules nv))
        (Nuevo.max_model_error nv)

let pp_stats_delta ppf ((before : stats), (after : stats)) =
  let d f = f after - f before in
  let lin = d (fun s -> s.linear_lookups)
  and tss = d (fun s -> s.tss_lookups)
  and com = d (fun s -> s.computed_lookups) in
  if lin + tss + com > 0 then
    Format.fprintf ppf
      "classifier: %d linear / %d tss / %d computed lookup(s), remainder %d \
       hit(s) / %d miss(es)@."
      lin tss com
      (d (fun s -> s.remainder_hits))
      (d (fun s -> s.remainder_misses))
